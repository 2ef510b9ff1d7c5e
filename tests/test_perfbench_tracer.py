"""The benchmark's tracer (perfbench/tracer.py) wraps library attributes by
name; a refactor that renames or removes one breaks `perfbench/run.py
--trace 1`.  This reads the tracer's tables and changes nothing in perfbench."""

import importlib
import importlib.util
from collections import Counter
from pathlib import Path

from affprimes import cli, nilseq

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_tracer_targets_resolve():
    tracer = _tracer()
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


def test_nil_check_reaches_the_traced_nilseq_names(monkeypatch):
    # the tracer wraps module attributes, so nil-check must call them through the
    # module: one quadratic-phase orbit and two peels (cube, then shifted cube) per trial
    names = ("hk_factorize_heisenberg", "quadratic_phase_orbit")
    assert {("nilseq", name) for name in names} <= set(_tracer().SPANS)
    calls = Counter()
    for name in names:
        fn = getattr(nilseq, name)
        monkeypatch.setattr(nilseq, name, lambda *a, fn=fn, name=name, **k: calls.update([name]) or fn(*a, **k))
    payload, _, _ = cli.cmd_nil_check(trials=10, seed=0)
    assert calls == {"hk_factorize_heisenberg": 20, "quadratic_phase_orbit": 10}
    assert payload["hk_success"] == payload["hk_perturbed_failures"] == payload["quadratic_phase_exact"] == 10
