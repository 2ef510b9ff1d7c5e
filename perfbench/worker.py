"""One pass over a workload's ops in a fresh interpreter.

run.py starts this script once per pass with affprimes' `src/` on
PYTHONPATH.  It imports affprimes, loads the configs (writing the seeded ones
into its work directory), prints `ready` and then runs every op, timing each
one and checking its output afterwards.  Its last stdout line is a JSON
object with the pass time, the peak RSS, each op's result and, with
`--trace 1`, the per-layer metrics (span seconds rescaled like op times,
by the pass's median kernel time).

The CPU speed of a shared host drifts by 10-20 % within seconds.  A fixed
calibration kernel therefore runs before the first op and after every op,
and each op's wall time is also reported rescaled to the speed at which the
kernel takes CAL_REF_S: op_s * CAL_REF_S / (mean of the two adjacent kernel
times).  On the host the baseline was taken on, this cut the spread of a
run's median pass time from 8-24 % to 2-4 % (see BASELINE.md).
"""

import argparse
import contextlib
import io
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from affprimes import cli

import workloads
from tracer import Tracer

# Median calibrate() time on a 2-core Xeon at 2.1 GHz (the baseline host).
CAL_REF_S = 0.0114


def calibrate():
    """Median of three timings of a fixed pure-Python loop.

    Interpreter speed tracked the ops' speed best among the kernels tried;
    numpy kernels tracked it worse.
    """
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        s = 0
        for i in range(150_000):
            s += i * i % 7
        times.append(time.perf_counter() - t0)
    return sorted(times)[1]


def prepare(op, inputs, work):
    """Seeded config of an op: a file for the CLI, a dict for a library call."""
    cfg = op.config_for(inputs)
    if op.call is not None:
        return cfg
    path = work / f"{op.name}.json"
    path.write_text(json.dumps(cfg))
    return path


def run_op(op, prepared, inputs, work):
    """Run one op; returns (seconds, output or None, error or None)."""
    out_dir = work / op.name
    logs = io.StringIO()
    t0 = time.perf_counter()
    try:
        if op.call is not None:
            output = op.call(prepared, inputs)
        else:
            with contextlib.redirect_stdout(logs), contextlib.redirect_stderr(logs):
                code = cli.main([op.command, "--config", str(prepared), "--out", str(out_dir)])
            output = None
    except Exception:
        return time.perf_counter() - t0, None, traceback.format_exc()
    seconds = time.perf_counter() - t0
    if op.call is None:
        if code != 0:
            return seconds, None, f"exit code {code}: {logs.getvalue().strip()}"
        output = json.loads((out_dir / "report.json").read_text())["result"]
    return seconds, workloads.normalize(op, json.loads(json.dumps(output))), None


def check(op, output, inputs, goldens):
    """Why an op's output is wrong, or None."""
    if op.golden is not None:
        want = goldens.get(op.name, {}).get(op.golden_key(inputs))
        if want is None:
            return f"no golden for {op.golden_key(inputs)}"
        diff = workloads.mismatch(output, want)
        if diff:
            return f"differs from golden at {diff}"
    if op.check is not None:
        return op.check(output, inputs)
    return None


def main():
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--work", required=True, help="directory for configs and reports")
    args = p.parse_args()

    work = Path(args.work)
    work.mkdir(parents=True, exist_ok=True)
    inputs = workloads.seeded_inputs(args.seed)
    ops = workloads.WORKLOADS[args.workload]
    prepared = [prepare(op, inputs, work) for op in ops]
    goldens = workloads.load_goldens()
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    print("ready", flush=True)

    cal = [calibrate()]
    results = []
    for op, prep in zip(ops, prepared):
        seconds, output, error = run_op(op, prep, inputs, work)
        cal.append(calibrate())
        if error is None:
            try:
                error = check(op, output, inputs, goldens)
            except (KeyError, TypeError, ValueError) as e:
                error = f"output not checkable: {e!r}"
        results.append({
            "op": op.name,
            "wall_s": seconds,
            "seconds": seconds * CAL_REF_S / ((cal[-2] + cal[-1]) / 2),
            "error": error,
        })
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    import numpy
    import scipy

    print(json.dumps({
        "run_s": sum(r["seconds"] for r in results),
        "run_wall_s": sum(r["wall_s"] for r in results),
        "setup_scale": CAL_REF_S / cal[0],
        "peak_rss_mb": rss_mb,
        "ops": results,
        "metrics": tracer.metrics(CAL_REF_S / statistics.median(cal)) if tracer else {},
        "spans": tracer.spans if tracer else [],
        "affprimes": str(Path(cli.__file__).resolve().parent),
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
    }))


if __name__ == "__main__":
    main()
