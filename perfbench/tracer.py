"""Spans and counts around the public functions of each affprimes module.

`Tracer.install()` replaces module attributes (and `ConvexBody` methods) with
wrappers; every other module attribute bound to the same function, such as
`counting.singular_series`, is replaced too.  A span records its name, its
parent span and its duration; a layer's self time is its duration minus that
of its direct children.  Counts are computed from arguments and results
while the clock is stopped, so they add nothing to any span.
"""

import dataclasses
import functools
import importlib
import sys
import time
from collections import Counter, defaultdict

import numpy as np

# (module, attribute) wrapped in a span named "<module>.<attribute>".
SPANS = (
    ("cli", "main"),
    ("arith", "build_tables"),
    ("geometry", "archimedean_factor"),
    ("geometry", "ConvexBody.lattice_point_count"),
    ("geometry", "ConvexBody.outer_values_and_bounds"),
    ("counting", "weighted_count"),
    ("counting", "predict"),
    ("counting", "compare"),
    ("localfactors", "singular_series"),
    ("localfactors", "local_profile"),
    ("gowers", "gowers_norm_local"),
    ("gowers", "gowers_norm_cyclic"),
    ("gysieve", "build_enveloping_sieve"),
    ("gysieve", "gy_weight_array"),
    ("gysieve", "tau_moments"),
    ("gysieve", "linear_forms_check"),
    ("gysieve", "correlation_check"),
    ("gysieve", "domination_constant"),
    ("forms", "complexity"),
    ("forms", "normal_form_extension"),
    ("forms", "is_normal_form"),
    ("nilseq", "hk_factorize_heisenberg"),
    ("nilseq", "mobius_nil_correlation"),
    ("nilseq", "quadratic_phase_orbit"),
)

# Called too often and too briefly for spans: call counts only.
CALL_COUNTS = (
    ("localfactors", "local_factor"),
    ("linalg", "rank"),
    ("linalg", "rank_mod_p"),
    ("linalg", "smith_normal_form"),
)


def _arg(args, kwargs, i, name, default=None):
    if len(args) > i:
        return args[i]
    return kwargs.get(name, default)


def _points(body):
    """Lattice points of a body, as counting.predict counts them."""
    if body.dim == 2:
        _, lo, hi = body.outer_values_and_bounds()
        return int((hi - lo + 1).sum())
    return body.lattice_point_count()


class Tracer:
    def __init__(self):
        self.spans = []          # (span id, parent id, name, seconds)
        self.counts = Counter()
        self._stack = []
        self._next_id = 0
        self._hidden = 0.0       # clock time spent in count hooks
        self._paused = False

    def _clock(self):
        return time.perf_counter() - self._hidden

    def _hide(self, hook, *args):
        """Run a count hook with tracing paused and the clock stopped."""
        t0 = time.perf_counter()
        self._paused = True
        try:
            hook(*args)
        finally:
            self._paused = False
            self._hidden += time.perf_counter() - t0

    def _span(self, fn, name, before=None, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            span_name = name(args, kwargs) if callable(name) else name
            if before:
                self._hide(before, args, kwargs)
            sid = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(sid)
            t0 = self._clock()
            try:
                res = fn(*args, **kwargs)
            finally:
                dt = self._clock() - t0
                self._stack.pop()
                self.spans.append((sid, parent, span_name, dt))
            if after:
                self._hide(after, args, kwargs, res)
            return res
        return wrapper

    def _call_count(self, fn, key):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self._paused:
                self.counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _row_count(self, fn):
        @functools.wraps(fn)
        def runs(body):
            for row in fn(body):
                if not self._paused:
                    self.counts["geometry.runs.rows"] += 1
                yield row
        return runs

    # -- count hooks ---------------------------------------------------------

    def _table_bytes(self, args, kwargs, tables):
        self.counts["arith.table_bytes"] += sum(
            getattr(tables, f.name).nbytes
            for f in dataclasses.fields(tables)
            if isinstance(getattr(tables, f.name), np.ndarray)
        )

    def _archimedean_points(self, args, kwargs, res):
        self.counts["geometry.points"] += res[0]

    def _weighted_points(self, args, kwargs):
        self.counts["counting.weighted_count.points"] += _points(_arg(args, kwargs, 1, "body"))

    def _predict_route(self, args, kwargs, res):
        from affprimes import counting

        if _arg(args, kwargs, 3, "mode", "integral") != "integral" or res[1].vanishing:
            return
        body = _arg(args, kwargs, 1, "body")
        exact = body.dim != 2 or _points(body) <= counting.EXACT_INTEGRAL_POINT_GUARD
        self.counts["counting.predict.route." + ("exact" if exact else "quadrature")] += 1

    def _lf_route(self, args, kwargs, res):
        self.counts["gysieve.linear_forms_check.route." + res.method.replace(":", "_")] += 1

    # -- installation --------------------------------------------------------

    def _replace(self, module, attr, make):
        """Wrap module.attr (or Class.method) and every alias of it."""
        owner = module
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        orig = getattr(owner, leaf)
        new = make(orig)
        setattr(owner, leaf, new)
        if path:
            return
        for mod in list(sys.modules.values()):
            name = getattr(mod, "__name__", "")
            if mod is module or not name.startswith("affprimes"):
                continue
            for alias, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, alias, new)

    def install(self):
        hooks = {
            "arith.build_tables": {"after": self._table_bytes},
            "geometry.archimedean_factor": {"after": self._archimedean_points},
            "counting.weighted_count": {"before": self._weighted_points},
            "counting.predict": {
                "name": lambda a, k: "counting.predict." + _arg(a, k, 3, "mode", "integral"),
                "after": self._predict_route,
            },
            "gysieve.linear_forms_check": {"after": self._lf_route},
        }
        for mod_name, attr in SPANS:
            module = importlib.import_module(f"affprimes.{mod_name}")
            key = f"{mod_name}.{attr}"
            h = hooks.get(key, {})
            self._replace(
                module, attr,
                lambda fn, key=key, h=h: self._span(
                    fn, h.get("name", key), h.get("before"), h.get("after")
                ),
            )
        for mod_name, attr in CALL_COUNTS:
            module = importlib.import_module(f"affprimes.{mod_name}")
            key = f"{mod_name}.{attr}.calls"
            self._replace(module, attr, lambda fn, key=key: self._call_count(fn, key))
        self._replace(importlib.import_module("affprimes.geometry"), "ConvexBody.runs", self._row_count)

    # -- results -------------------------------------------------------------

    def metrics(self, scale=1.0):
        """Per-layer metrics; span seconds are multiplied by `scale`."""
        total = defaultdict(float)
        child = defaultdict(float)
        calls = Counter()
        names = {sid: name for sid, _, name, _ in self.spans}
        for sid, parent, name, dt in self.spans:
            dt *= scale
            total[name] += dt
            calls[name] += 1
            if parent is not None:
                child[names[parent]] += dt
        out = dict(self.counts)
        for name in total:
            out[f"{name}.s"] = total[name]
            out[f"{name}.self_s"] = total[name] - child[name]
            out[f"{name}.calls"] = calls[name]
        wc = total.get("counting.weighted_count")
        if wc:
            out["counting.weighted_count.points_per_s"] = (
                self.counts["counting.weighted_count.points"] / wc
            )
        return out
