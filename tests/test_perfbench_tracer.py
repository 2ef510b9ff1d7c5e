"""The benchmark's tracer (perfbench/tracer.py) wraps library attributes by
name; a refactor that renames or removes one breaks `perfbench/run.py
--trace 1`.  This reads the tracer's tables and changes nothing in perfbench."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_tracer_targets_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    targets = [*tracer.SPANS, *tracer.CALL_COUNTS, ("geometry", "ConvexBody.runs")]
    assert len(targets) > 20
    missing = []
    for module, attr in targets:
        owner = importlib.import_module(f"affprimes.{module}")
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"affprimes.{module}.{attr}")
    assert missing == []
