"""Command-line front end: reproducible experiment runs with JSON/CSV reports.

Every run writes report.json (stable key order, full resolved config) into
--out; table-like results are also written as RFC-4180 CSV when --format csv.
Exit codes: 0 ok, 1 validation error, 2 resource guard, 3 internal assertion.
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

TABLE_GUARD = 3 * 10**8


class ValidationError(Exception):
    pass


class ResourceGuard(Exception):
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
    for key in ("pmax", "gamma", "w", "seed", "threads", "N"):
        v = getattr(args, key, None)
        if v is not None:
            cfg[key] = v
    return cfg


def _need(cfg, key, kind=None):
    if key not in cfg:
        raise ValidationError(f"config key {key!r} required")
    v = cfg[key]
    if kind is not None and not isinstance(v, kind):
        raise ValidationError(f"config key {key!r} must be {kind}")
    return v


def _system(cfg, n_scale=None):
    return forms.form_system_from_json(_need(cfg, "system", dict), n_scale=n_scale)


def _body(cfg, n_scale=None):
    return geometry.convex_body_from_json(_need(cfg, "body", dict), n_scale=n_scale)


def _tables_for(sys_, body):
    m = 2
    for f in sys_.forms:
        lo, hi = counting.affine_range_over_body(body, f.linear_coeffs, f.constant)
        if lo is not None:
            m = max(m, abs(int(lo)), abs(int(hi)))
    if m > TABLE_GUARD:
        raise ResourceGuard(f"table of size {m} exceeds the {TABLE_GUARD} guard")
    return arith.build_tables(m + 2)


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
    sys_ = _system(cfg, cfg.get("N"))
    res = forms.complexity(sys_)
    return {
        "system": forms.form_system_to_json(sys_),
        "per_index": [None if x == math.inf else x for x in res.per_index],
        "overall": None if res.overall == math.inf else res.overall,
        "witnesses": {str(i): w for i, w in res.witnesses.items()},
    }, None, None


def cmd_normalize(cfg):
    sys_ = _system(cfg, cfg.get("N"))
    s = _need(cfg, "s", int)
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
    sys_ = _system(cfg, cfg.get("N"))
    p_max = int(cfg.get("pmax", 100))
    if p_max > 10**5:
        raise ResourceGuard("exact per-prime profile limited to pmax <= 1e5")
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
    sys_ = _system(cfg, cfg.get("N"))
    p_max = int(cfg.get("pmax", 10**6))
    ss = localfactors.singular_series(sys_, p_max, min_prime=int(cfg.get("min_prime", 2)))
    return {
        "system": forms.form_system_to_json(sys_),
        "pmax": p_max,
        "min_prime": int(cfg.get("min_prime", 2)),
        "truncated_product": ss.truncated_product,
        "tail_log_bound": ss.tail_log_bound,
        "envelope_constant": ss.envelope_constant,
        "vanishing": ss.vanishing,
        "exceptional_primes": ss.exceptional_primes,
    }, None, None


def cmd_predict(cfg):
    n = _need(cfg, "N", int)
    sys_ = _system(cfg, n)
    body = _body(cfg, n)
    p_max = int(cfg.get("pmax", 10**5))
    mode = cfg.get("mode", "integral")
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
    n = _need(cfg, "N", int)
    sys_ = _system(cfg, n)
    body = _body(cfg, n)
    weights = cfg.get("weights", ["prime_indicator"] * sys_.t)
    if len(weights) != sys_.t:
        raise ValidationError("weights must list one selector per form")
    wp = None
    if any(w in ("lambda_bw", "lambda_prime_bw") for w in weights):
        wp = arith.w_trick(w=float(cfg.get("w", 5.0)))
    tables = _tables_for(sys_, body)
    val = counting.weighted_count(
        sys_, body, weights, tables, wparams=wp, b_list=cfg.get("b_list")
    )
    return {
        "system": forms.form_system_to_json(sys_),
        "body": geometry.convex_body_to_json(body),
        "N": n,
        "weights": weights,
        "count": val,
    }, None, None


def cmd_compare(cfg):
    n = _need(cfg, "N", int)
    sys_ = _system(cfg, n)
    body = _body(cfg, n)
    p_max = int(cfg.get("pmax", 10**5))
    tables = _tables_for(sys_, body)
    rep = counting.compare(sys_, body, p_max, tables)
    payload = rep.to_json()
    payload["system"] = forms.form_system_to_json(sys_)
    payload["body"] = geometry.convex_body_to_json(body)
    return payload, [rep.csv_row().split(",")], counting.CorrelationReport.csv_header.split(",")


def cmd_mobius_corr(cfg):
    n = _need(cfg, "N", int)
    sys_ = _system(cfg, n)
    body = _body(cfg, n)
    func = cfg.get("f", "mobius")
    tables = _tables_for(sys_, body)
    val = counting.mobius_correlation(sys_, body, tables, func=func)
    return {
        "system": forms.form_system_to_json(sys_),
        "N": n,
        "f": func,
        "normalized_correlation": val,
    }, None, None


def cmd_chowla(cfg):
    n = _need(cfg, "N", int)
    factors = [forms.AffineForm(tuple(row)) for row in _need(cfg, "factors", list)]
    m = max(
        sum(abs(c) for c in f.linear_coeffs) * n for f in factors
    )
    if m > TABLE_GUARD:
        raise ResourceGuard("table too large")
    tables = arith.build_tables(m + 2)
    val = counting.chowla_check(factors, n, tables)
    return {"N": n, "factors": [list(f.linear_coeffs) for f in factors], "value": val}, None, None


def cmd_gowers(cfg):
    n = _need(cfg, "N", int)
    s = int(cfg.get("s", 1))
    kind = cfg.get("input", "wtrick")
    if kind == "wtrick":
        wp = arith.w_trick(w=float(cfg.get("w", 5.0)))
        b = int(cfg.get("b", 1))
        m = wp.W * n + b
        if m > TABLE_GUARD:
            raise ResourceGuard("table too large")
        tables = arith.build_tables(m + 2)
        f = arith.lambda_bw_array(n, b, wp, tables, primed=True) - 1.0
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
    n = _need(cfg, "N", int)
    sys_ = _system(cfg, n)
    body = _body(cfg, n)
    gamma = float(cfg.get("gamma", 1 / 20))
    a_list = cfg.get("a_list", [1] * sys_.t)
    chi_name = cfg.get("chi", "tent_taper")
    chi = {"tent_taper": gysieve.tent_taper, "normalized_bump": gysieve.normalized_bump}[
        chi_name
    ]()
    tables = _tables_for(sys_, body)
    out = gysieve.gy_estimate_check(
        sys_, body, [chi] * sys_.t, a_list, gamma, tables, p_max=int(cfg.get("pmax", 10**5))
    )
    out.update({"N": n, "gamma": gamma, "chi": chi_name, "a_list": a_list})
    return out, None, None


def cmd_sieve_check(cfg):
    n = _need(cfg, "N", int)
    gamma = float(cfg.get("gamma", 1 / 20))
    w = float(cfg.get("w", 5.0))
    b_list = cfg.get("b_list", [1])
    c_factor = int(cfg.get("C", 20))
    wp = arith.w_trick(w=w)
    m = wp.W * n + max(b_list)
    if m > TABLE_GUARD:
        raise ResourceGuard("table too large")
    tables = arith.build_tables(m + 2)
    sieve = gysieve.build_enveloping_sieve(n, gamma, w, b_list, c_factor, tables=tables)
    dep = forms.system([[1, 0], [1, 1]])
    lf = gysieve.linear_forms_check(sieve, dep, seed=int(cfg.get("seed", 0)))
    lhs, rhs, holds = gysieve.correlation_check(sieve, 2, [3, 9], tables)
    return {
        "N": n,
        "gamma": gamma,
        "W": wp.W,
        "b_list": list(b_list),
        "C": c_factor,
        "N_prime": sieve.n_prime,
        "R": sieve.big_r,
        "measure": sieve.mean(),
        "nu_min": float(sieve.nu.min()),
        "domination_constant": gysieve.domination_constant(sieve, tables),
        "linear_forms_deviation": lf.deviation,
        "linear_forms_method": lf.method,
        "correlation": {"lhs": lhs, "rhs": rhs, "holds": holds},
    }, None, None


def cmd_nil_check(cfg):
    seed = int(cfg.get("seed", 0))
    trials = int(cfg.get("trials", 100))
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
        cube = nilseq.orbit_parallelepiped(g, x0, int(rng.integers(-5, 6)), h)
        if nilseq.hk_factorize_heisenberg(cube).success:
            hk_ok += 1
        v = cube[(0, 0, 0)]
        cube[(0, 0, 0)] = nilseq.HeisenbergElement(v.x, v.y, v.z + Fraction(1, 10))
        if not nilseq.hk_factorize_heisenberg(cube).success:
            hk_perturbed_fail += 1
    return {
        "seed": seed,
        "trials": trials,
        "quadratic_phase_exact": quad_ok,
        "hk_success": hk_ok,
        "hk_perturbed_failures": hk_perturbed_fail,
    }, None, None


def cmd_mn_corr(cfg):
    n = _need(cfg, "N", int)
    kind = cfg.get("kind", "phase")
    if n > TABLE_GUARD:
        raise ResourceGuard("table too large")
    tables = arith.build_tables(n + 2)
    if kind == "phase":
        alpha = float(cfg.get("alpha", 0.5 * (math.sqrt(5) - 1)))
        val = nilseq.mobius_phase_correlation(n, alpha, tables)
        meta = {"alpha": alpha}
    elif kind == "heisenberg":
        theta = float(cfg.get("theta", 0.5 * (math.sqrt(5) - 1)))
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
    p.add_argument("--threads", type=int, default=None, help="recorded; execution is serial")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--pmax", type=int, default=None)
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--w", type=float, default=None)
    p.add_argument("--N", type=int, default=None)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    t0 = time.perf_counter()
    try:
        cfg = _load_config(args)
        payload, rows, header = COMMANDS[args.command](cfg)
    except (ValidationError, ValueError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except ResourceGuard as e:
        print(f"resource guard: {e}", file=sys.stderr)
        return 2
    except AssertionError as e:
        print(f"internal assertion: {e}", file=sys.stderr)
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
