"""affprimes benchmark: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload hl-progressions --seed 1 --seconds 20 --trace 0

Run from the repository root.  Each pass over the workload's ops is a fresh,
single-threaded interpreter (worker.py); passes repeat until --seconds have
elapsed, and every metric is the median over passes:

  run_s        seconds of one pass over the ops, set-up excluded
  setup_s      seconds from starting the interpreter until the first op can
               be issued (importing affprimes, numpy, scipy; loading configs)
  peak_rss_mb  peak resident memory of a pass process

Both times are wall seconds rescaled to a reference host speed by a
calibration kernel run next to them (see worker.py); the raw wall seconds
are printed with the samples.

Every op's output is checked against perfbench/goldens.json or a paper
criterion; an op that raises, exits non-zero or mismatches counts as failed.
With --trace 1, untraced and traced passes alternate and the per-layer
metrics of BENCHMARK.json are printed instead, with trace.overhead the
traced over untraced run_s, minus 1.  The raw spans of every traced pass,
as [span id, parent id, name, wall seconds], are written to
perfbench/.work/spans-<workload>-seed<seed>.json.

The next-to-last stdout line records the environment and every sample; the
last line is the result object.
"""

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

MIN_PASSES = 3            # per mode
RUN_LIMIT_S = 170         # a run must end within 180 s
PIN_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_pass(args, trace, work, deadline):
    """Start one worker; returns its result with setup_s and wall_s added."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    env.update({k: "1" for k in PIN_THREADS})
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--trace", str(trace), "--work", str(work),
    ]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise SystemExit(f"error: a {args.workload} pass ran past the {RUN_LIMIT_S} s limit")
    wall_s = time.perf_counter() - t0
    if proc.returncode != 0 or ready.strip() != "ready":
        raise SystemExit(f"error: worker exited with code {proc.returncode}")
    res = json.loads(out.strip().splitlines()[-1])
    res.update(
        setup_wall_s=setup_s, setup_s=setup_s * res["setup_scale"], wall_s=wall_s, trace=trace
    )
    return res


def run_passes(args, work):
    """Passes until --seconds have elapsed; in trace mode they alternate."""
    modes = (0, 1) if args.trace else (0,)
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    passes = []
    while True:
        for trace in modes:
            passes.append(run_pass(args, trace, work / f"pass{len(passes)}", deadline))
        done = len(passes) >= MIN_PASSES * len(modes)
        next_s = sum(p["wall_s"] for p in passes[-len(modes):])
        if done and time.monotonic() - start + next_s > args.seconds:
            return passes


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not 0 < args.seconds <= RUN_LIMIT_S / 2:
        p.error(f"--seconds must lie in (0, {RUN_LIMIT_S // 2}]")

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "affprimes" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: {ROOT} holds no affprimes source tree to benchmark", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())

    (HERE / ".work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=HERE / ".work"))
    try:
        passes = run_passes(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            (HERE / ".work").rmdir()

    expected = str((ROOT / "src" / "affprimes").resolve())
    if any(q["affprimes"] != expected for q in passes):
        print(f"error: workers imported affprimes from outside {expected}", file=sys.stderr)
        return 2

    plain = [q for q in passes if not q["trace"]]
    traced = [q for q in passes if q["trace"]]
    if traced:
        (HERE / ".work").mkdir(exist_ok=True)
        spans = HERE / ".work" / f"spans-{args.workload}-seed{args.seed}.json"
        spans.write_text(json.dumps([q["spans"] for q in traced]))
    samples = {
        k: [q[k] for q in plain]
        for k in ("run_s", "setup_s", "peak_rss_mb", "run_wall_s", "setup_wall_s")
    }
    if args.trace:
        layer = {m["name"]: [q["metrics"].get(m["name"], 0) for q in traced] for m in spec["per_layer"]}
        layer["trace.overhead"] = [
            statistics.median(q["run_s"] for q in traced) / statistics.median(samples["run_s"]) - 1
        ]
        metrics = {
            m["name"]: {"value": statistics.median(layer[m["name"]]), "unit": m["unit"]}
            for m in spec["per_layer"]
        }
    else:
        metrics = {
            m["name"]: {"value": statistics.median(samples[m["name"]]), "unit": m["unit"]}
            for m in spec["end_to_end"]
        }

    ops = [r for q in passes for r in q["ops"]]
    failures = [f"{r['op']}: {r['error']}" for r in ops if r["error"]]
    for f in failures:
        print(f"FAILED {f}", file=sys.stderr)
    op_s = {}
    for r in ops:
        op_s.setdefault(r["op"], []).append(r["seconds"])
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "inputs": workloads.seeded_inputs(args.seed),
        "environment": {
            "nproc": os.cpu_count(),
            "cpu_model": cpu_model(),
            **passes[0]["versions"],
            "threads_pinned": {k: "1" for k in PIN_THREADS},
        },
        "samples": samples,
        "traced_run_s": [q["run_s"] for q in traced],
        "op_s": op_s,
        "failures": failures,
    }))
    print(json.dumps({
        "correct": not failures,
        "attempted": len(ops),
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
