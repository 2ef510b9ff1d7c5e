"""Record every op's output as the golden the benchmark checks against.

Run from the repository root on the commit whose outputs are the reference:

    PYTHONPATH=src python3 perfbench/record_goldens.py

Ops whose output depends on the W-trick residue b get one golden per
residue; ops that depend on a free seed have no golden and are checked
against paper criteria instead (see workloads.py).
"""

import json
import tempfile
from pathlib import Path

import workloads
from worker import prepare, run_op


def main():
    goldens = {}
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for ops in workloads.WORKLOADS.values():
            for op in ops:
                if op.golden is None:
                    continue
                residues = workloads.W30_RESIDUES if op.golden == "b" else (1,)
                for b in residues:
                    inputs = dict(workloads.seeded_inputs(0), b=b)
                    _, output, error = run_op(op, prepare(op, inputs, work), inputs, work)
                    if error:
                        raise SystemExit(f"{op.name}: {error}")
                    goldens.setdefault(op.name, {})[op.golden_key(inputs)] = output
                    print(op.name, op.golden_key(inputs), flush=True)
    workloads.GOLDENS.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
