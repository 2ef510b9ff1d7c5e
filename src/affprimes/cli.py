"""Command-line front end: reproducible experiment runs with JSON/CSV reports.

Every run writes report.json (stable key order, full resolved config) into
--out; table-like results are also written as RFC-4180 CSV when --format csv.
Exit codes: 0 ok (also for --help), 1 validation error (a malformed flag
included), 2 resource guard, 3 internal error.
"""

import argparse
import csv
import json
import locale  # noqa: F401 -- argparse's gettext loads it at the first parse; loaded here, it is start-up time
import math
import sys
import time
from pathlib import Path

import numpy as np
import numpy.random

from . import arith, counting, forms, geometry, gowers, gysieve, localfactors, nilseq


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


def _get(cfg, key, kind, default=..., of=None, exact=False):
    """cfg[key] as kind, or default when the key is absent (no default: required).

    An int key takes an int (not a bool) or, unless exact, an integral float;
    a float key takes any value float() converts to a finite float; a key of
    any other kind (list, dict, str) must have that type, and a list's items
    the type of.  A violation is a ValidationError naming the key.
    """
    if key not in cfg:
        if default is ...:
            raise ValidationError(f"config key {key!r} required")
        return default
    v = cfg[key]
    if kind is int:
        if isinstance(v, float) and v.is_integer() and not exact:
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
    if not isinstance(v, kind) or (of is not None and not all(isinstance(x, of) for x in v)):
        items = f" of {of.__name__}" if of else ""
        raise ValidationError(f"config key {key!r} must be a {kind.__name__}{items}")
    return v


def _scale(cfg, default=...):
    """The scale cfg["N"], an int of at least 1 (default when absent, if given)."""
    n = _get(cfg, "N", int, default, exact=True)
    if n is not None and n < 1:
        raise ValidationError(f"config key 'N' must be at least 1, not {n}")
    return n


def _parsed(cfg, key, from_json):
    """The JSON object cfg[key] read by from_json at the scale N (if given)."""
    obj, n = _get(cfg, key, dict), _scale(cfg, None)
    try:
        return from_json(obj, n_scale=n)
    except (TypeError, AttributeError, KeyError) as e:
        raise ValidationError(f"config key {key!r} is malformed: {e}") from None


def _system(cfg):
    return _parsed(cfg, "system", forms.form_system_from_json)


def _problem(cfg):
    """(N, system, body) of a command that counts over a body K."""
    n = _scale(cfg)
    return n, _system(cfg), _parsed(cfg, "body", geometry.convex_body_from_json)


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


def cmd_complexity(cfg):
    sys_ = _system(cfg)
    res = forms.complexity(sys_)
    return {
        "system": forms.form_system_to_json(sys_),
        "per_index": [None if x == math.inf else x for x in res.per_index],
        "overall": None if res.overall == math.inf else res.overall,
        "witnesses": {str(i): w for i, w in res.witnesses.items()},
    }, None, None


def cmd_normalize(cfg):
    sys_ = _system(cfg)
    s = _get(cfg, "s", int, exact=True)
    ext, fvecs = forms.normal_form_extension(sys_, s)
    ok, witnesses = forms.is_normal_form(ext, s, with_witness=True)
    return {
        "system": forms.form_system_to_json(sys_),
        "s": s,
        "extension": forms.form_system_to_json(ext),
        "witness_vectors": fvecs,
        "is_normal_form": ok,
        "normal_form_witnesses": witnesses,
        "lattice_equal": forms.is_extension(sys_, ext),
    }, None, None


def cmd_local_factors(cfg):
    sys_ = _system(cfg)
    p_max = _get(cfg, "pmax", int, 100)
    if p_max > 10**5:
        raise arith.ResourceGuard("exact per-prime profile limited to pmax <= 1e5")
    prof = localfactors.local_profile(sys_, p_max)
    rows = [(p, num, den, val) for p, num, den, val in prof.rows()]
    return (
        {
            "system": forms.form_system_to_json(sys_),
            "pmax": p_max,
            "factors": [
                {"p": p, "num": num, "den": den, "value": val} for p, num, den, val in rows
            ],
        },
        rows,
        ["p", "num", "den", "value"],
    )


def cmd_singular_series(cfg):
    sys_ = _system(cfg)
    p_max = _get(cfg, "pmax", int, 10**6)
    min_prime = _get(cfg, "min_prime", int, 2)
    ss = localfactors.singular_series(sys_, p_max, min_prime=min_prime)
    return {
        "system": forms.form_system_to_json(sys_),
        "pmax": p_max,
        "min_prime": min_prime,
        "truncated_product": ss.truncated_product,
        "tail_log_bound": ss.tail_log_bound,
        "envelope_constant": ss.envelope_constant,
        "vanishing": ss.vanishing,
        "exceptional_primes": ss.exceptional_primes,
    }, None, None


def cmd_predict(cfg):
    n, sys_, body = _problem(cfg)
    p_max = _get(cfg, "pmax", int, 10**5)
    mode = _get(cfg, "mode", str, "integral")
    val, ss = counting.predict(sys_, body, localfactors.singular_series(sys_, p_max), mode)
    return {
        "system": forms.form_system_to_json(sys_),
        "body": geometry.convex_body_to_json(body),
        "N": n,
        "pmax": p_max,
        "mode": mode,
        "prediction": val,
        "singular_series": ss.truncated_product,
        "vanishing": ss.vanishing,
    }, None, None


def cmd_count(cfg):
    n, sys_, body = _problem(cfg)
    weights = _get(cfg, "weights", list, ["prime_indicator"] * sys_.t, of=str)
    if len(weights) != sys_.t:
        raise ValidationError("weights must list one selector per form")
    wp = None
    if any(w in ("lambda_bw", "lambda_prime_bw") for w in weights):
        wp = arith.w_trick(w=_get(cfg, "w", float, 5.0))
    tables = _tables_for(sys_, body)
    val = counting.weighted_count(
        sys_, body, weights, tables, wparams=wp, b_list=_get(cfg, "b_list", list, None, of=int)
    )
    return {
        "system": forms.form_system_to_json(sys_),
        "body": geometry.convex_body_to_json(body),
        "N": n,
        "weights": weights,
        "count": val,
    }, None, None


def cmd_compare(cfg):
    n, sys_, body = _problem(cfg)
    p_max = _get(cfg, "pmax", int, 10**5)
    tables = _tables_for(sys_, body)
    rep = counting.compare(sys_, body, p_max, tables)
    payload = rep.to_json()
    payload["system"] = forms.form_system_to_json(sys_)
    payload["body"] = geometry.convex_body_to_json(body)
    return payload, [rep.csv_row().split(",")], counting.CorrelationReport.csv_header.split(",")


def cmd_mobius_corr(cfg):
    n, sys_, body = _problem(cfg)
    func = _get(cfg, "f", str, "mobius")
    tables = _tables_for(sys_, body)
    val = counting.mobius_correlation(sys_, body, tables, func=func)
    return {
        "system": forms.form_system_to_json(sys_),
        "N": n,
        "f": func,
        "normalized_correlation": val,
    }, None, None


def cmd_chowla(cfg):
    n = _scale(cfg)
    factors = [forms.AffineForm(tuple(row)) for row in _get(cfg, "factors", list, of=list)]
    if not factors:
        raise ValidationError("config key 'factors' must not be empty")
    tables = arith.build_tables(max(sum(map(abs, f.linear_coeffs)) * n for f in factors) + 2)
    val = counting.chowla_check(factors, n, tables)
    return {"N": n, "factors": [list(f.linear_coeffs) for f in factors], "value": val}, None, None


def cmd_gowers(cfg):
    n = _scale(cfg)
    s = _get(cfg, "s", int, 1)
    kind = _get(cfg, "input", str, "wtrick")
    if kind == "wtrick":
        wp = arith.w_trick(w=_get(cfg, "w", float, 5.0))
        b = _get(cfg, "b", int, 1)
        f = arith.lambda_bw_array(n, b, wp, primed=True) - 1.0
        norm = gowers.gowers_norm_local(f, s).norm
        meta = {"b": b, "W": wp.W}
    elif kind == "delta":
        f = np.zeros(n)
        f[0] = 1.0
        norm = gowers.gowers_norm_cyclic(f, s).norm
        meta = {"closed_form": n ** (-(s + 2) / 2 ** (s + 1))}
    else:
        raise ValidationError(f"unknown gowers input {kind!r}")
    return {"N": n, "s": s, "input": kind, "norm": norm, **meta}, None, None


def cmd_gy_verify(cfg):
    n, sys_, body = _problem(cfg)
    gamma = _get(cfg, "gamma", float, 1 / 20)
    a_list = _get(cfg, "a_list", list, [1] * sys_.t, of=int)
    chi_name = _get(cfg, "chi", str, "tent_taper")
    cutoffs = {"tent_taper": gysieve.tent_taper, "normalized_bump": gysieve.normalized_bump}
    if chi_name not in cutoffs:
        raise ValidationError(f"config key 'chi' must be one of {', '.join(cutoffs)}; got {chi_name!r}")
    out = gysieve.gy_estimate_check(
        sys_, body, [cutoffs[chi_name]()] * sys_.t, a_list, gamma, p_max=_get(cfg, "pmax", int, 10**5)
    )
    out.update({"N": n, "gamma": gamma, "chi": chi_name, "a_list": a_list})
    return out, None, None


def cmd_sieve_check(cfg):
    n = _scale(cfg)
    gamma = _get(cfg, "gamma", float, 1 / 20)
    w = _get(cfg, "w", float, 5.0)
    b_list = _get(cfg, "b_list", list, [1], of=int)
    if not b_list:
        raise ValidationError("config key 'b_list' must not be empty")
    c_factor = _get(cfg, "C", int, 20)
    sieve = gysieve.build_enveloping_sieve(n, gamma, w, b_list, c_factor)
    dep = forms.system([[1, 0], [1, 1]])
    lf = gysieve.linear_forms_check(sieve, dep, seed=_get(cfg, "seed", int, 0))
    lhs, rhs, holds = gysieve.correlation_check(sieve, 2, [3, 9])
    return {
        "N": n,
        "gamma": gamma,
        "W": sieve.wparams.W,
        "b_list": list(b_list),
        "C": c_factor,
        "N_prime": sieve.n_prime,
        "R": sieve.big_r,
        "measure": sieve.mean(),
        "nu_min": float(sieve.nu.min()),
        "domination_constant": gysieve.domination_constant(sieve),
        "linear_forms_deviation": lf.deviation,
        "linear_forms_method": lf.method,
        "correlation": {"lhs": lhs, "rhs": rhs, "holds": holds},
    }, None, None


def cmd_nil_check(cfg):
    seed = _get(cfg, "seed", int, 0)
    trials = _get(cfg, "trials", int, 100)
    rng = np.random.default_rng(seed)
    from fractions import Fraction

    def rand_frac(lo=-30, hi=30, den=12):
        return Fraction(int(rng.integers(lo, hi)), int(rng.integers(1, den)))

    quad_ok = 0
    for _ in range(trials):
        theta = rand_frac()
        nn = int(rng.integers(-300, 300))
        nilseq.quadratic_phase_orbit(theta, nn)
        quad_ok += 1
    hk_ok = 0
    hk_perturbed_fail = 0
    for _ in range(trials):
        g = nilseq.HeisenbergElement(rand_frac(), rand_frac(), rand_frac())
        x0 = nilseq.HeisenbergElement(rand_frac(), rand_frac(), rand_frac())
        h = tuple(int(rng.integers(-5, 6)) for _ in range(3))
        cube = nilseq.orbit_cube(g, x0, int(rng.integers(-5, 6)), h)
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


def cmd_mn_corr(cfg):
    n = _scale(cfg)
    kind = _get(cfg, "kind", str, "phase")
    tables = arith.build_tables(n + 2)
    if kind == "phase":
        alpha = _get(cfg, "alpha", float, 0.5 * (math.sqrt(5) - 1))
        val = nilseq.mobius_phase_correlation(n, alpha, tables)
        meta = {"alpha": alpha}
    elif kind == "heisenberg":
        theta = _get(cfg, "theta", float, 0.5 * (math.sqrt(5) - 1))
        g = nilseq.HeisenbergElement(-theta, 2.0, -theta)
        func = nilseq.smooth_cell_function(0.0, 0.0)
        val = nilseq.mobius_nil_correlation(n, g, nilseq.HeisenbergElement.identity(), func, tables)
        meta = {"theta": theta}
    elif kind == "constant":
        val = complex(tables.mobius[1: n + 1].astype(float).mean())
        meta = {}
    else:
        raise ValidationError(f"unknown mn-corr kind {kind!r}")
    return {"N": n, "kind": kind, "abs": abs(val), "real": val.real, "imag": val.imag, **meta}, None, None


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
        payload, rows, header = COMMANDS[args.command](cfg)
    except arith.ResourceGuard as e:        # a ValueError: caught first, so it exits 2
        print(f"resource guard: {e}", file=sys.stderr)
        return 2
    except (ValidationError, ValueError, KeyError) as e:
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
