"""dynbatch benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --smoke

Run from the root of a dynbatch source tree; the package is imported from
``src/``.  Every workload is a closed loop in one process: the next op starts
when the previous one ends.  Worker processes, min(2, nproc) of them, are
started only inside ``run_study`` by the study workload's checks and by the
parallel pass of its traced run; set-up is timed in fresh interpreters
(setup_probe.py), one at a time.

``--trace 0`` sets the workload up, runs one warm-up op, then for
``--seconds`` seconds runs each op twice: once with the package under test
and once with ``frozen/dynbatch_frozen``, an unmodified copy of the package
as of the commit that added this benchmark, alternating which goes first.
It reports the end-to-end metrics:

* ``speed_vs_baseline``: total op time of the frozen copy divided by that of
  the package under test, over the same ops (see each workload in
  workloads.py for what one op is).  It reads about 1 at that commit and
  rises as the package gets faster.  On a shared host the machine's speed
  drifts by tens of percent over seconds to minutes; both sides of a pair
  see the same drift, so the ratio is steady where raw op rates are not.
  A pair now and then straddles a change of speed, so each kind of call
  counts at the median of its pairs' ratios (see ``speed``).  The raw rates
  are printed on the log lines;
* ``setup_s``: import of the package plus the workload's input generation,
  each in a fresh interpreter, as seconds at the speed the machine had when
  the benchmark was added: the frozen copy's set-up time measured then
  (``FROZEN_SETUP_S``) times the median ratio of set-up under test to
  set-up of the frozen copy over adjacent pairs.  Raw set-up times drift
  with the machine's speed by more than the metric's bound;
* ``peak_rss_mb``: peak resident memory after set-up and the warm-up op,
  before the frozen copy is loaded.

``--trace 1`` does a fixed amount of work untraced, untraced again at the
workload's parallel worker count if it has one, and with the wrappers of
tracing.py installed.  It reports per-layer busy times and work counts from
the traced pass, the tracing overhead (traced minus untraced wall time) and
the parallel efficiency, and checks that all passes produced the same
outputs.

Outputs are checked after the timed loop.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
Earlier lines record the environment and each failure.  ``--smoke`` runs
every workload at reduced size in both modes and checks that each metric
named in BENCHMARK.json is printed with its unit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter, defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench_work"
FROZEN = Path(__file__).resolve().parent / "frozen"

END_TO_END_UNITS = {"speed_vs_baseline": "ratio", "setup_s": "s", "peak_rss_mb": "MB"}
#: Adjacent pairs of set-ups (under test, frozen copy) timed per run.
SETUP_PAIRS = 7
#: Median import + set-up seconds of the frozen copy in a fresh interpreter,
#: over 11 seeds on a 2-vCPU host (Python 3.11.7, numpy 2.4.6).
FROZEN_SETUP_S = {"study": 0.151, "trace-setcost": 0.356, "adversary": 0.177}
#: The timed loop runs at least this many ops, however short --seconds is.
MIN_OPS = 3


def git_revision() -> str:
    """HEAD's commit id read from .git, or "unknown" outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def src_digest() -> str:
    """sha256 over the package sources, to identify a tree without git."""
    h = hashlib.sha256()
    for path in sorted((SRC / "dynbatch").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def environment(wl, args) -> dict:
    import numpy

    return {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "cpu_count": os.cpu_count(), "workers": wl.workers,
        "parallel_workers": wl.parallel_workers,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "git_revision": git_revision(), "src_sha256": src_digest(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def probe_setup(side: str, args, workdir: Path) -> float:
    """Seconds of one set-up by setup_probe.py of ``side`` ("test" or "frozen")."""
    workdir.mkdir(exist_ok=True)
    out = subprocess.run([sys.executable, str(Path(__file__).with_name("setup_probe.py")), side,
                          args.workload, str(args.seed), str(workdir), str(int(args.smoke))],
                         capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.split()[-1])


def measure_setup(wl, args) -> float:
    """``setup_s``: see the module docstring."""
    ratios = []
    for i in range(SETUP_PAIRS):
        sides = ("test", "frozen") if i % 2 == 0 else ("frozen", "test")
        t = {side: probe_setup(side, args, wl.workdir / f"setup-{side}") for side in sides}
        ratios.append(t["test"] / t["frozen"])
    return FROZEN_SETUP_S[args.workload] * statistics.median(ratios)


def paired_loop(wl, ref, seconds: float) -> tuple[list, list]:
    """Ops 1, 2, ... of the workload and of its frozen reference until
    ``seconds`` have passed.  Each call of an op runs right next to the same
    call on the other side, so both see the machine at the same speed; the
    side that goes first alternates."""
    ops, ref_ops = [], []
    k = 1
    deadline = time.perf_counter() + seconds
    while k <= MIN_OPS or time.perf_counter() < deadline:
        for i, (mine, theirs) in enumerate(zip(wl.calls(k), ref.calls(k))):
            if (k + i) % 2:
                ops.append(mine())
                ref_ops.append(theirs())
            else:
                ref_ops.append(theirs())
                ops.append(mine())
        k += 1
    return ops, ref_ops


def speed(pairs: list[tuple[str, float, float]]) -> float:
    """Frozen time over time under test, from (kind, seconds under test,
    frozen seconds) pairs: the frozen time of each kind of call divided by
    the median of that kind's pair ratios, summed over kinds, estimates the
    time under test."""
    by_kind = defaultdict(list)
    for kind, own, ref in pairs:
        by_kind[kind].append((own, ref))
    ref_s = sum(ref for _, _, ref in pairs)
    own_s = sum(sum(ref for _, ref in kp) / statistics.median(ref / own for own, ref in kp)
                for kp in by_kind.values())
    return ref_s / own_s


def fixed_pass(wl) -> tuple[float, list]:
    """Set up and run the workload's fixed traced work; return wall time and ops."""
    t0 = time.perf_counter()
    wl.setup()
    ops = [op for k in range(wl.traced_ops) for op in wl.op(k)]
    return time.perf_counter() - t0, ops


def run_untraced(wl, args) -> tuple[list, dict]:
    from workloads import WORKLOADS

    setup_s = measure_setup(wl, args)
    wl.setup()
    ops = wl.op(0)
    rss = peak_rss_mb()
    if str(FROZEN) not in sys.path:
        sys.path.insert(0, str(FROZEN))
    import dynbatch_frozen

    refdir = wl.workdir / "reference"
    refdir.mkdir()
    ref = WORKLOADS[args.workload](dynbatch_frozen, args.seed, refdir, args.smoke)
    ref.setup()
    loop_ops, ref_ops = paired_loop(wl, ref, args.seconds)
    pairs = [(op.kind, op.seconds, r.seconds) for op, r in zip(loop_ops, ref_ops)
             if op.kind in wl.timed_kinds and op.error is None and r.error is None]
    if not pairs:
        raise RuntimeError(f"every {wl.timed_kinds} op raised; nothing to time")
    own_s = sum(t for _, t, _ in pairs)
    ref_s = sum(r for _, _, r in pairs)
    ops += loop_ops
    ops += wl.check(ops)
    print("op_seconds", json.dumps([[kind, round(t, 6), round(r, 6)] for kind, t, r in pairs]))
    print(f"{args.workload}: {len(pairs)} timed ops, {own_s:.3f} s under test, {ref_s:.3f} s "
          f"frozen; ops_per_s {len(pairs) / len(wl.timed_kinds) / own_s:.4f} under test, "
          f"{len(pairs) / len(wl.timed_kinds) / ref_s:.4f} frozen; {wl.describe(ops)}; "
          f"setup_s {setup_s:.4f}")
    return ops, {"speed_vs_baseline": speed(pairs), "setup_s": setup_s, "peak_rss_mb": rss}


def run_traced(wl, args) -> tuple[list, dict]:
    from tracing import LAYER_UNITS, Tracer
    from workloads import DistinctPlusSqrt

    wall, ops = fixed_pass(wl)
    passes = []
    workers = wl.parallel_workers
    parallel_wall = wall
    if workers > 1:
        wl.workers = workers
        try:
            parallel_wall, parallel_ops = fixed_pass(wl)
        finally:
            wl.workers = 1
        passes.append(parallel_ops)
    tracer = Tracer()
    tracer.install(DistinctPlusSqrt)
    try:
        traced_wall, traced_ops = fixed_pass(wl)
    finally:
        tracer.uninstall()
    passes.append(traced_ops)
    if any([op.outcome() for op in other] != [op.outcome() for op in ops] for other in passes):
        for op in traced_ops:
            op.wrong = op.wrong or "traced, untraced or parallel outputs differ"
    traced_ops += wl.check(traced_ops)
    metrics = tracer.layer_metrics()
    metrics["sim.parallel_efficiency"] = wall / (workers * parallel_wall)
    metrics["tracing.untraced_wall_s"] = wall
    metrics["tracing.overhead_s"] = traced_wall - wall
    print(f"{args.workload}: traced {traced_wall:.4f} s, untraced {wall:.4f} s"
          + (f", untraced at {workers} workers {parallel_wall:.4f} s" if workers > 1 else ""))
    return traced_ops, {name: metrics[name] for name in LAYER_UNITS}


def run(args) -> dict:
    """One benchmark run; returns the result object printed last."""
    import dynbatch
    from tracing import LAYER_UNITS
    from workloads import WORKLOADS

    WORKDIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORKDIR))
    try:
        wl = WORKLOADS[args.workload](dynbatch, args.seed, workdir, args.smoke)
        print(json.dumps({"env": environment(wl, args)}))
        if args.trace:
            ops, values = run_traced(wl, args)
            units = LAYER_UNITS
        else:
            ops, values = run_untraced(wl, args)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failures = Counter(f"{op.kind}: {op.error or op.wrong}" for op in ops if op.failed)
    for msg, count in failures.items():
        print(f"FAILED x{count} {msg}")
    failed = sum(op.failed for op in ops)
    print(f"{args.workload}: error_rate {failed / len(ops):.4f} ({failed}/{len(ops)} ops failed)")
    return {
        "correct": not any(op.wrong for op in ops),
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def smoke() -> int:
    """Every workload at reduced size in both modes; 0 if every metric in
    BENCHMARK.json is printed with its unit."""
    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            args = argparse.Namespace(workload=workload, seed=1, seconds=0.0,
                                      trace=trace, smoke=True)
            result = run(args)
            print(json.dumps(result))
            for metric in spec[key]:
                got = result["metrics"].get(metric["name"])
                if got is None or got["unit"] != metric["unit"]:
                    problems.append(f"{workload} trace={trace}: {metric['name']} "
                                    f"printed as {got!r}, want unit {metric['unit']!r}")
            extra = set(result["metrics"]) - {m["name"] for m in spec[key]}
            problems += [f"{workload} trace={trace}: {name} not in BENCHMARK.json"
                         for name in sorted(extra)]
    for p in problems:
        print("SMOKE:", p)
    print("smoke:", "ok" if not problems else f"{len(problems)} problems")
    return 1 if problems else 0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=["study", "trace-setcost", "adversary"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--smoke", action="store_true", help="reduced-size check of every metric")
    args = p.parse_args(argv)
    if not args.smoke and args.workload is None:
        p.error("--workload is required")
    if args.seed < 0 or args.seconds < 0:
        p.error("--seed and --seconds must be non-negative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "dynbatch" / "__init__.py").is_file():
        print(f"error: no dynbatch sources under {SRC}; run from a dynbatch checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.smoke:
        return smoke()
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
