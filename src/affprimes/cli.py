"""Command-line front end: reproducible experiment runs with JSON/CSV reports.

Every run writes report.json (stable key order, full resolved config) into
--out; table-like results are also written as RFC-4180 CSV when --format csv.
Exit codes: 0 ok (also for --help), 1 validation error (a malformed flag
included), 2 resource guard, 3 internal error.
"""

import argparse
import csv
import functools
import inspect
import json
import locale  # noqa: F401 -- argparse's gettext loads it at the first parse; loaded here, it is start-up time
import math
import sys
import time
import typing
from pathlib import Path

import numpy as np

# the signatures and the error handling need these; gowers, gysieve, nilseq and
# numpy.random are imported by the commands that run them, so that a command
# loads only what it runs
from . import arith, counting, forms, geometry, localfactors


class ValidationError(Exception):
    pass


def _load_config(args):
    cfg = {}
    if args.config:
        try:
            cfg = json.loads(Path(args.config).read_text())
        except json.JSONDecodeError as e:
            raise ValidationError(f"malformed JSON in {args.config}: line {e.lineno} column {e.colno}: {e.msg}")
        except OSError as e:
            raise ValidationError(str(e))
        if not isinstance(cfg, dict):
            raise ValidationError(f"{args.config} must hold a JSON object")
    for key in ("pmax", "gamma", "w", "seed", "N"):
        v = getattr(args, key, None)
        if v is not None:
            cfg[key] = v
    return cfg


Exact = typing.NewType("Exact", int)     # the kind of an int key that takes no integral float
Positive = typing.Annotated[int, 1]      # Annotated[kind, m]: a value of that kind, at least m
NonNegative = typing.Annotated[int, 0]


class NonEmpty(list):
    """The kind NonEmpty[T]: a list of T with at least one item."""


def _value(cfg, key, kind, default):
    """cfg[key] checked against kind, or default when the key is absent (no default: an error).

    int takes an int (not a bool) or an integral float, Exact only an int;
    Annotated[kind, m] a value of kind that is at least m; float takes any
    value float() converts to a finite float; Literal[...]
    one of its names; list[T] a list of T, NonEmpty[T] a non-empty one; any
    other kind (dict, str) that type.  A violation is a ValidationError
    naming the key.
    """
    if key not in cfg:
        if default is inspect.Parameter.empty:
            raise ValidationError(f"config key {key!r} required")
        return default
    v = cfg[key]
    origin, args = typing.get_origin(kind), typing.get_args(kind)
    if origin is typing.Annotated:
        v = _value(cfg, key, args[0], default)
        if v < args[1]:
            raise ValidationError(f"config key {key!r} must be at least {args[1]}, not {v}")
        return v
    if kind in (int, Exact):
        if isinstance(v, float) and v.is_integer() and kind is int:
            return int(v)
        if not isinstance(v, int) or isinstance(v, bool):
            raise ValidationError(f"config key {key!r} must be an integer, not {v!r}")
        return v
    if kind is float:
        try:
            v = float(v)
        except (TypeError, ValueError, OverflowError):
            raise ValidationError(f"config key {key!r} must be a number, not {v!r}") from None
        if not math.isfinite(v):
            raise ValidationError(f"config key {key!r} must be finite, not {v!r}")
        return v
    if origin is typing.Literal:
        if v not in args:
            raise ValidationError(f"config key {key!r} must be one of {', '.join(args)}; got {v!r}")
        return v
    if origin in (list, NonEmpty):
        if not isinstance(v, list) or not all(isinstance(x, args[0]) for x in v):
            raise ValidationError(f"config key {key!r} must be a list of {args[0].__name__}")
        if origin is NonEmpty and not v:
            raise ValidationError(f"config key {key!r} must not be empty")
        return v
    if not isinstance(v, kind):
        raise ValidationError(f"config key {key!r} must be a {kind.__name__}")
    return v


def _arguments(cmd, cfg):
    """cmd's keyword arguments read from cfg, all checked before cmd runs.

    Each parameter is a config key: its annotation gives the key's kind and
    its default the key's default (none: the key is required).  N comes
    first, whenever cmd takes N, a system or a body: it is the scale at which
    system (a FormSystem) and body (a ConvexBody) are parsed, and a body
    needs it.
    """
    params = inspect.signature(cmd).parameters
    n = None
    if params.keys() & {"N", "system", "body"}:
        default = params["N"].default if "N" in params else None
        n = _value(cfg, "N", typing.Annotated[Exact, 1], inspect.Parameter.empty if "body" in params else default)
    parsers = {forms.FormSystem: (dict, functools.partial(forms.form_system_from_json, n_scale=n)),
               geometry.ConvexBody: (dict, functools.partial(geometry.convex_body_from_json, n_scale=n)),
               NonEmpty[forms.AffineForm]: (NonEmpty[list], lambda rows: list(map(forms.AffineForm, rows)))}
    args = {}
    for key, p in params.items():
        if key == "N":
            args[key] = n
        elif p.annotation in parsers:
            kind, parse = parsers[p.annotation]
            obj = _value(cfg, key, kind, p.default)
            try:
                args[key] = parse(obj)
            except (TypeError, AttributeError, KeyError, ValueError, ZeroDivisionError) as e:
                raise ValidationError(f"config key {key!r} is malformed: {e}") from None
        else:
            args[key] = _value(cfg, key, p.annotation, p.default)
    return args


def _per_form(key, values, system, default):
    """values (one default per form when None), which must list one entry per form."""
    values = [default] * system.t if values is None else values
    if len(values) != system.t:
        raise ValidationError(f"config key {key!r} must list one entry per form ({system.t}), not {len(values)}")
    return values


def _tables_for(sys_, body):
    """Tables up to max |psi_i| over K (at least 2), plus two."""
    return arith.build_tables(max(2, *(counting._form_bound(body, f) or 0 for f in sys_.forms)) + 2)


def _write_report(out_dir, payload, csv_rows=None, csv_header=None, fmt="json"):
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "report.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True, default=str) + "\n")
    if fmt == "csv" and csv_rows is not None:
        with open(out / "report.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            if csv_header:
                writer.writerow(csv_header)
            writer.writerows(csv_rows)
    return path


# ---------------------------------------------------------------------------
# commands


def cmd_complexity(system: forms.FormSystem):
    res = forms.complexity(system)
    return {
        "system": forms.form_system_to_json(system),
        "per_index": [None if x == math.inf else x for x in res.per_index],
        "overall": None if res.overall == math.inf else res.overall,
        "witnesses": {str(i): w for i, w in res.witnesses.items()},
    }, None, None


def cmd_normalize(system: forms.FormSystem, s: Exact):
    ext, fvecs = forms.normal_form_extension(system, s)
    ok, witnesses = forms.is_normal_form(ext, s, with_witness=True)
    return {
        "system": forms.form_system_to_json(system),
        "s": s,
        "extension": forms.form_system_to_json(ext),
        "witness_vectors": fvecs,
        "is_normal_form": ok,
        "normal_form_witnesses": witnesses,
        "lattice_equal": forms.is_extension(system, ext),
    }, None, None


def cmd_local_factors(system: forms.FormSystem, pmax: int = 100):
    if pmax > 10**5:
        raise arith.ResourceGuard("exact per-prime profile limited to pmax <= 1e5")
    prof = localfactors.local_profile(system, pmax)
    rows = [(p, num, den, val) for p, num, den, val in prof.rows()]
    return (
        {
            "system": forms.form_system_to_json(system),
            "pmax": pmax,
            "factors": [
                {"p": p, "num": num, "den": den, "value": val} for p, num, den, val in rows
            ],
        },
        rows,
        ["p", "num", "den", "value"],
    )


def cmd_singular_series(system: forms.FormSystem, pmax: int = 10**6, min_prime: int = 2):
    ss = localfactors.singular_series(system, pmax, min_prime=min_prime)
    return {
        "system": forms.form_system_to_json(system),
        "pmax": pmax,
        "min_prime": min_prime,
        "truncated_product": ss.truncated_product,
        "tail_log_bound": ss.tail_log_bound,
        "envelope_constant": ss.envelope_constant,
        "vanishing": ss.vanishing,
        "exceptional_primes": ss.exceptional_primes,
    }, None, None


def cmd_predict(system: forms.FormSystem, body: geometry.ConvexBody, N: Exact, pmax: int = 10**5,
                mode: str = "integral"):
    val, ss = counting.predict(system, body, localfactors.singular_series(system, pmax), mode)
    return {
        "system": forms.form_system_to_json(system),
        "body": geometry.convex_body_to_json(body),
        "N": N,
        "pmax": pmax,
        "mode": mode,
        "prediction": val,
        "singular_series": ss.truncated_product,
        "vanishing": ss.vanishing,
    }, None, None


def cmd_count(system: forms.FormSystem, body: geometry.ConvexBody, N: Exact, weights: list[str] = None,
              w: float = 5.0, b_list: list[int] = None):
    weights = _per_form("weights", weights, system, "prime_indicator")
    wp = arith.w_trick(w=w) if any(x in ("lambda_bw", "lambda_prime_bw") for x in weights) else None
    tables = _tables_for(system, body)
    val = counting.weighted_count(
        system, body, weights, tables, wparams=wp, b_list=_per_form("b_list", b_list, system, None)
    )
    return {
        "system": forms.form_system_to_json(system),
        "body": geometry.convex_body_to_json(body),
        "N": N,
        "weights": weights,
        "count": val,
    }, None, None


def cmd_compare(system: forms.FormSystem, body: geometry.ConvexBody, pmax: int = 10**5):
    tables = _tables_for(system, body)
    rep = counting.compare(system, body, pmax, tables)
    payload = rep.to_json()
    payload["system"] = forms.form_system_to_json(system)
    payload["body"] = geometry.convex_body_to_json(body)
    return payload, [rep.csv_row().split(",")], counting.CorrelationReport.csv_header.split(",")


def cmd_mobius_corr(system: forms.FormSystem, body: geometry.ConvexBody, N: Exact, f: str = "mobius"):
    tables = _tables_for(system, body)
    val = counting.mobius_correlation(system, body, tables, func=f)
    return {
        "system": forms.form_system_to_json(system),
        "N": N,
        "f": f,
        "normalized_correlation": val,
    }, None, None


def cmd_chowla(N: Exact, factors: NonEmpty[forms.AffineForm]):
    tables = arith.build_tables(max(sum(map(abs, f.linear_coeffs)) * N for f in factors) + 2)
    val = counting.chowla_check(factors, N, tables)
    return {"N": N, "factors": [list(f.linear_coeffs) for f in factors], "value": val}, None, None


def cmd_gowers(N: Exact, s: int = 1, input: typing.Literal["wtrick", "delta"] = "wtrick", w: float = 5.0,
               b: int = 1):
    from . import gowers

    if input == "wtrick":
        wp = arith.w_trick(w=w)
        f = arith.lambda_bw_array(N, b, wp, primed=True) - 1.0
        norm = gowers.gowers_norm_local(f, s).norm
        meta = {"b": b, "W": wp.W}
    else:
        f = np.zeros(N)
        f[0] = 1.0
        norm = gowers.gowers_norm_cyclic(f, s).norm
        meta = {"closed_form": N ** (-(s + 2) / 2 ** (s + 1))}
    return {"N": N, "s": s, "input": input, "norm": norm, **meta}, None, None


def cmd_gy_verify(system: forms.FormSystem, body: geometry.ConvexBody, N: Exact, gamma: float = 1 / 20,
                  a_list: list[int] = None, chi: typing.Literal["tent_taper", "normalized_bump"] = "tent_taper",
                  pmax: int = 10**5):
    from . import gysieve

    a_list = _per_form("a_list", a_list, system, 1)
    out = gysieve.gy_estimate_check(system, body, [getattr(gysieve, chi)()] * system.t, a_list, gamma, p_max=pmax)
    out.update({"N": N, "gamma": gamma, "chi": chi, "a_list": a_list})
    return out, None, None


def cmd_sieve_check(N: Exact, gamma: float = 1 / 20, w: float = 5.0, b_list: NonEmpty[int] = (1,), C: int = 20,
                    seed: NonNegative = 0):
    from . import gysieve

    sieve = gysieve.build_enveloping_sieve(N, gamma, w, b_list, C)
    dep = forms.system([[1, 0], [1, 1]])
    lf = gysieve.linear_forms_check(sieve, dep, seed=seed)
    lhs, rhs, holds = gysieve.correlation_check(sieve, 2, [3, 9])
    return {
        "N": N,
        "gamma": gamma,
        "W": sieve.wparams.W,
        "b_list": list(b_list),
        "C": C,
        "N_prime": sieve.n_prime,
        "R": sieve.big_r,
        "measure": sieve.mean(),
        "nu_min": float(sieve.nu.min()),
        "domination_constant": gysieve.domination_constant(sieve),
        "linear_forms_deviation": lf.deviation,
        "linear_forms_method": lf.method,
        "correlation": {"lhs": lhs, "rhs": rhs, "holds": holds},
    }, None, None


def cmd_nil_check(seed: NonNegative = 0, trials: Positive = 100):
    from fractions import Fraction

    import numpy.random

    from . import nilseq

    rng = numpy.random.default_rng(seed)

    def draws(*bounds):
        """trials rows of one integer in [low, high) per (low, high), in one call: per-entry
        bounds draw the values, and leave the state, of one scalar call per entry in this order."""
        low, high = np.tile(np.array(bounds).T, trials)
        return rng.integers(low, high).reshape(trials, len(bounds)).tolist()

    frac = ((-30, 30), (1, 12))         # a numerator, then a denominator
    quad_ok = 0
    for t, d, nn in draws(*frac, (-300, 300)):
        nilseq.quadratic_phase_orbit(Fraction(t, d), nn)
        quad_ok += 1
    hk_ok = 0
    hk_perturbed_fail = 0
    for row in draws(*frac * 6, *[(-5, 6)] * 4):
        c = [Fraction(p, q) for p, q in zip(row[:12:2], row[1:12:2])]
        g, x0 = nilseq.HeisenbergElement(*c[:3]), nilseq.HeisenbergElement(*c[3:])
        cube = nilseq.orbit_cube(g, x0, row[15], tuple(row[12:15]))
        if nilseq.hk_factorize_heisenberg(cube).success:
            hk_ok += 1
        if not nilseq.hk_factorize_heisenberg(cube.shift_z((0, 0, 0), 1, 10)).success:
            hk_perturbed_fail += 1
    return {
        "seed": seed,
        "trials": trials,
        "quadratic_phase_exact": quad_ok,
        "hk_success": hk_ok,
        "hk_perturbed_failures": hk_perturbed_fail,
    }, None, None


def cmd_mn_corr(N: Exact, kind: typing.Literal["phase", "heisenberg", "constant"] = "phase",
                alpha: float = 0.5 * (math.sqrt(5) - 1), theta: float = 0.5 * (math.sqrt(5) - 1)):
    from . import nilseq

    tables = arith.build_tables(N + 2)
    if kind == "phase":
        val = nilseq.mobius_phase_correlation(N, alpha, tables)
        meta = {"alpha": alpha}
    elif kind == "heisenberg":
        g = nilseq.HeisenbergElement(-theta, 2.0, -theta)
        func = nilseq.smooth_cell_function()
        val = nilseq.mobius_nil_correlation(N, g, nilseq.HeisenbergElement.identity(), func, tables)
        meta = {"theta": theta}
    else:
        val = complex(int(tables.mobius[1: N + 1].sum(dtype=np.int64)) / N)     # exact sum, no float copy of mu
        meta = {}
    return {"N": N, "kind": kind, "abs": abs(val), "real": val.real, "imag": val.imag, **meta}, None, None


COMMANDS = {
    "complexity": cmd_complexity,
    "normalize": cmd_normalize,
    "local-factors": cmd_local_factors,
    "singular-series": cmd_singular_series,
    "predict": cmd_predict,
    "count": cmd_count,
    "compare": cmd_compare,
    "mobius-corr": cmd_mobius_corr,
    "chowla": cmd_chowla,
    "gowers": cmd_gowers,
    "gy-verify": cmd_gy_verify,
    "sieve-check": cmd_sieve_check,
    "nil-check": cmd_nil_check,
    "mn-corr": cmd_mn_corr,
}


def build_parser():
    p = argparse.ArgumentParser(prog="affprimes", description=__doc__)
    p.add_argument("command", choices=sorted(COMMANDS))
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--pmax", type=int, default=None)
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--w", type=float, default=None)
    p.add_argument("--N", type=int, default=None)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    return p


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:     # argparse has printed the usage; a malformed flag is a validation error
        return 1 if e.code else 0
    t0 = time.perf_counter()
    try:
        cfg = _load_config(args)
        cmd = COMMANDS[args.command]
        payload, rows, header = cmd(**_arguments(cmd, cfg))
    except arith.ResourceGuard as e:        # a ValueError: caught first, so it exits 2
        print(f"resource guard: {e}", file=sys.stderr)
        return 2
    except (ValidationError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except Exception as e:
        print(f"internal error: {e!r}", file=sys.stderr)
        return 3
    report = {
        "command": args.command,
        "config": cfg,
        "result": payload,
        "timing": {"seconds": round(time.perf_counter() - t0, 3)},
    }
    path = _write_report(args.out, report, rows, header, fmt=args.format)
    print(json.dumps(payload, sort_keys=True, default=str))
    print(f"report: {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
