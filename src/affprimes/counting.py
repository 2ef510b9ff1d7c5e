"""Correlation sums over convex bodies, Hardy-Littlewood predictions and
comparison reports.

The run enumerator from geometry splits K into inner-coordinate segments;
per segment, each form is affine in the inner variable, so weight lookups
become strided views into the tables.  Weights supported on primes (or
prime powers) drive the iteration through the sorted support array instead,
which is what makes the N = 10^6 progression experiments run in seconds.
All accumulation is single-threaded in a fixed order (per-run partial sums
combined with math.fsum), so results are bit-reproducible.
"""

import itertools
import math
import time
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import geometry, linalg
from .localfactors import singular_series

EXACT_INTEGRAL_POINT_GUARD = 2 * 10**7


# ---------------------------------------------------------------------------
# weights


@dataclass
class Weight:
    """Per-form weight w(m) backed by a lookup table.

    kind: 'sparse'  - support given by mask/sorted list (primes, prime powers)
          'pm1'     - dense int8 values in {-1, 0, 1}
          'float'   - dense float values
          'one'     - constant 1
    Values at m <= 0 are zero unless reflect_negative is set (then w(-m)=w(m)).
    """

    name: str
    kind: str
    values: np.ndarray | None = None
    support_mask: np.ndarray | None = None
    support_list: np.ndarray | None = None
    reflect_negative: bool = False

    @property
    def m_max(self):
        if self.kind == "one":
            return None
        return len(self.values) - 1

    def value_at(self, m):
        if self.kind == "one":
            return 1.0
        m = int(m)
        if m < 0:
            if not self.reflect_negative:
                return 0.0
            m = -m
        if m > self.m_max:
            raise ValueError(f"weight {self.name}: argument {m} beyond table")
        return float(self.values[m])


def make_weight(name, tables, wparams=None, b=None):
    """Resolve a weight selector name against arithmetic tables.

    Selectors: lambda, lambda_prime, mobius, liouville, one,
    prime_indicator, lambda_bw, lambda_prime_bw (the last two need the
    W-trick params and a residue b; they are tabulated over the form value n
    with w(n) = (phi(W)/W) Lambda(W n + b)).
    """
    if name == "one":
        return Weight(name="one", kind="one")
    if name == "mobius":
        return Weight(name=name, kind="pm1", values=tables.mobius)
    if name == "liouville":
        return Weight(name=name, kind="pm1", values=tables.liouville)
    if name == "lambda":
        mask = (tables.von_mangoldt > 0).view(np.uint8)
        sup = np.nonzero(mask)[0].astype(np.int64)
        return Weight(name=name, kind="sparse", values=tables.von_mangoldt,
                      support_mask=mask, support_list=sup)
    if name == "lambda_prime":
        return Weight(name=name, kind="sparse", values=tables.von_mangoldt_prime,
                      support_mask=tables.prime_mask, support_list=tables.primes)
    if name == "prime_indicator":
        return Weight(name=name, kind="sparse",
                      values=tables.is_prime.astype(np.float64),
                      support_mask=tables.prime_mask, support_list=tables.primes)
    if name in ("lambda_bw", "lambda_prime_bw"):
        if wparams is None or b is None:
            raise ValueError(f"{name} needs W-trick params and a residue b")
        if math.gcd(b, wparams.W) != 1:
            raise ValueError("b must be coprime to W")
        table = tables.von_mangoldt if name == "lambda_bw" else tables.von_mangoldt_prime
        n_hi = (tables.n_max - b) // wparams.W
        vals = wparams.normalizer * table[b: b + n_hi * wparams.W + 1: wparams.W].copy()
        vals[0] = 0.0       # n = 0 corresponds to the small argument b; keep Lambda support in n >= 1
        mask = (vals > 0).view(np.uint8)
        sup = np.nonzero(mask)[0].astype(np.int64)
        return Weight(name=f"{name}[b={b},W={wparams.W}]", kind="sparse",
                      values=vals, support_mask=mask, support_list=sup)
    raise ValueError(f"unknown weight {name!r}")


def weight_from_table(name, values, sparse=False, reflect_negative=False):
    """Weight from a raw value table (used for truncated divisor sums)."""
    values = np.asarray(values, dtype=np.float64)
    if sparse:
        mask = (values != 0).view(np.uint8)
        return Weight(name=name, kind="sparse", values=values, support_mask=mask,
                      support_list=np.nonzero(mask)[0].astype(np.int64),
                      reflect_negative=reflect_negative)
    return Weight(name=name, kind="float", values=values,
                  reflect_negative=reflect_negative)


# ---------------------------------------------------------------------------
# form ranges over a body (table-range precheck)


def affine_range_over_body(body, coeffs, const):
    """Exact (min, max) of an affine functional over the body, via vertices."""
    d = body.dim
    hs = body.halfspaces
    best_lo, best_hi = None, None
    for subset in itertools.combinations(range(len(hs)), d):
        rows = [list(hs[i][0]) for i in subset]
        if linalg.rank(rows) != d:
            continue
        rhs = [hs[i][1] for i in subset]
        x = linalg.solve(rows, rhs)
        if x is None:
            continue
        if not all(
            sum(a * xi for a, xi in zip(hs[i][0], x)) <= hs[i][1] for i in range(len(hs))
        ):
            continue
        v = sum(Fraction(c) * xi for c, xi in zip(coeffs, x)) + const
        best_lo = v if best_lo is None else min(best_lo, v)
        best_hi = v if best_hi is None else max(best_hi, v)
    if best_lo is None:
        return None, None       # empty body
    return best_lo, best_hi


def _check_table_ranges(sys, body, weights):
    for f, w in zip(sys.forms, weights):
        if w.kind == "one":
            continue
        lo, hi = affine_range_over_body(body, f.linear_coeffs, f.constant)
        if lo is None:
            return
        if max(abs(lo), abs(hi)) > w.m_max:
            raise ValueError(
                f"form {f} ranges to {max(abs(lo), abs(hi))} beyond the "
                f"{w.name} table (n_max={w.m_max})"
            )


# ---------------------------------------------------------------------------
# strided views


def _strided_view(table, off, coef, lo, hi):
    """table[off + coef*x] for x = lo..hi as a (possibly reversed) view."""
    start = off + coef * lo
    stop = off + coef * hi
    if coef > 0:
        return table[start: stop + 1: coef]
    stop -= 1
    if stop < 0:
        return table[start:: coef]
    return table[start: stop: coef]


# ---------------------------------------------------------------------------
# the counting engine


def weighted_count(sys, body, weights, tables=None, wparams=None, b_list=None):
    """Sum over K of prod_i w_i(psi_i(n)).

    weights: list of selector names or Weight objects, one per form.
    Lambda-type weights vanish at nonpositive arguments.
    """
    resolved = []
    for i, w in enumerate(weights):
        if isinstance(w, Weight):
            resolved.append(w)
        else:
            bb = b_list[i] if b_list is not None else None
            resolved.append(make_weight(w, tables, wparams=wparams, b=bb))
    weights = resolved
    if len(weights) != sys.t:
        raise ValueError("one weight per form required")
    if body.dim != sys.d:
        raise ValueError("body dimension != parameter count")
    _check_table_ranges(sys, body, weights)

    d = sys.d
    coeffs = [list(f.linear_coeffs) for f in sys.forms]
    consts = [f.constant for f in sys.forms]
    live = [i for i, w in enumerate(weights) if w.kind != "one"]

    all_pm1 = all(weights[i].kind == "pm1" for i in live)
    run_sums = []

    for prefix, lo, hi in body.runs():
        # forms split by inner-coefficient
        const_factor = 1.0
        varying = []
        skip = False
        for i in live:
            cf = coeffs[i][d - 1]
            off = sum(coeffs[i][j] * prefix[j] for j in range(d - 1)) + consts[i]
            if cf == 0:
                v = weights[i].value_at(off)
                if v == 0.0:
                    skip = True
                    break
                const_factor *= v
            else:
                varying.append((i, cf, off))
        if skip:
            continue
        if not varying:
            run_sums.append(const_factor * (hi - lo + 1))
            continue

        sparse_driver = None
        if all(weights[i].kind == "sparse" for i, _, _ in varying):
            for i, cf, off in varying:
                if abs(cf) == 1:
                    sparse_driver = (i, cf, off)
                    break

        if sparse_driver is not None:
            i0, cf, off = sparse_driver
            sup = weights[i0].support_list
            vlo, vhi = off + cf * lo, off + cf * hi
            if cf < 0:
                vlo, vhi = vhi, vlo
            a = np.searchsorted(sup, vlo, "left")
            bnd = np.searchsorted(sup, vhi, "right")
            if a >= bnd:
                continue
            xs = (sup[a:bnd] - off) * cf        # cf in {1,-1}
            alive = None
            for i, cfi, offi in varying:
                if i == i0:
                    continue
                vals = cfi * xs + offi
                m = weights[i].support_mask[np.clip(vals, 0, weights[i].m_max)]
                m = m.astype(bool)
                if (vals < 0).any() or (vals > weights[i].m_max).any():
                    m &= (vals >= 0) & (vals <= weights[i].m_max)
                alive = m if alive is None else (alive & m)
            if alive is not None:
                xs = xs[alive]
            if len(xs) == 0:
                continue
            prod = None
            for i, cfi, offi in varying:
                vals = weights[i].values[cfi * xs + offi]
                prod = vals.astype(np.float64) if prod is None else prod * vals
            run_sums.append(const_factor * float(prod.sum()))
        elif all_pm1:
            acc = None
            for i, cfi, offi in varying:
                view = _strided_view(weights[i].values, offi, cfi, lo, hi)
                if acc is None:
                    acc = view.astype(np.int16)
                else:
                    acc *= view
            s = int(acc.sum(dtype=np.int64))
            if s:
                run_sums.append(const_factor * s)
        else:
            acc = None
            for i, cfi, offi in varying:
                w = weights[i]
                if w.reflect_negative:
                    pos = offi + cfi * np.arange(lo, hi + 1, dtype=np.int64)
                    view = w.values[np.abs(pos)]
                else:
                    view = _strided_view(w.values, offi, cfi, lo, hi)
                    # Lambda-type weights vanish at m <= 0; table index must be valid
                    first = offi + cfi * lo
                    last = offi + cfi * hi
                    if min(first, last) < 0:
                        pos = offi + cfi * np.arange(lo, hi + 1, dtype=np.int64)
                        view = np.where(pos >= 0, w.values[np.clip(pos, 0, w.m_max)], 0.0)
                if acc is None:
                    acc = np.asarray(view, dtype=np.float64).copy()
                else:
                    acc *= view
            run_sums.append(const_factor * float(acc.sum()))

    return math.fsum(run_sums)


def prime_point_count(sys, body, tables):
    """#{n in K : every psi_i(n) is prime}."""
    count = weighted_count(sys, body, ["prime_indicator"] * sys.t, tables)
    return int(round(count))


# ---------------------------------------------------------------------------
# predictions


def _integral_sum_exact(sys, body):
    """Lattice sum of prod 1_{psi_i > 2} / log psi_i over K."""
    d = sys.d
    coeffs = [list(f.linear_coeffs) for f in sys.forms]
    consts = [f.constant for f in sys.forms]
    parts = []
    for prefix, lo, hi in body.runs():
        xs = np.arange(lo, hi + 1, dtype=np.int64)
        prod = None
        for cf, c in zip(coeffs, consts):
            off = sum(cf[j] * prefix[j] for j in range(d - 1)) + c
            vals = off + cf[d - 1] * xs
            g = np.where(vals > 2, 1.0 / np.log(np.maximum(vals, 3)), 0.0)
            prod = g if prod is None else prod * g
        parts.append(float(prod.sum()))
    return math.fsum(parts)


def _integral_sum_quadrature(sys, body, nodes=12, panels=8):
    """Euler-Maclaurin / Gauss-Legendre approximation of the same lattice sum.

    Valid for dim 2; rows are the outer-coordinate runs.  The inner sum over
    integers in [lo, hi] is the integral over [lo - 1/2, hi + 1/2] plus the
    midpoint-dual Euler-Maclaurin correction (g'(lo-1/2) - g'(hi+1/2))/24,
    with g' in closed form.  Panels are split geometrically since the
    integrand varies on a log scale.  The interval is clipped to
    {psi_i >= 3} first.
    """
    if body.dim != 2:
        raise ValueError("quadrature path requires dim == 2")
    prefix, lo, hi = body.outer_values_and_bounds()
    if len(lo) == 0:
        return 0.0
    x1 = prefix[:, 0].astype(np.float64)
    lo = lo.astype(np.float64) - 0.5
    hi = hi.astype(np.float64) + 0.5
    keep = np.ones(len(x1), dtype=bool)
    for f in sys.forms:
        a0, a1 = f.linear_coeffs
        c = f.constant
        base = a0 * x1 + c
        if a1 == 0:
            keep &= base > 2
        elif a1 > 0:
            np.maximum(lo, (2.5 - base) / a1, out=lo)
        else:
            np.minimum(hi, (2.5 - base) / a1, out=hi)
    keep &= lo < hi
    x1, lo, hi = x1[keep], lo[keep], hi[keep]
    if len(x1) == 0:
        return 0.0

    def g_and_dg(x2):
        g = np.ones(len(x1))
        dg_over_g = np.zeros(len(x1))
        for f in sys.forms:
            a0, a1 = f.linear_coeffs
            vals = np.maximum(a0 * x1 + a1 * x2 + f.constant, 3.0)
            lg = np.log(vals)
            g *= 1.0 / lg
            dg_over_g -= a1 / (vals * lg)
        return g, g * dg_over_g

    gl_x, gl_w = np.polynomial.legendre.leggauss(nodes)
    span = hi - lo + 1.0
    edges = [lo + (span ** (k / panels) - 1.0) for k in range(panels + 1)]
    total = np.zeros(len(x1))
    for k in range(panels):
        a, bnd = edges[k], edges[k + 1]
        half = (bnd - a) / 2.0
        mid = (bnd + a) / 2.0
        for xi, wi in zip(gl_x, gl_w):
            g, _ = g_and_dg(mid + half * xi)
            total += wi * half * g
    _, dg_lo = g_and_dg(lo)
    _, dg_hi = g_and_dg(hi)
    total += (dg_lo - dg_hi) / 24.0
    return float(total.sum())


def predict(sys, body, ss, mode="integral"):
    """Hardy-Littlewood prediction for the prime point count on K.

    ss is the system's truncated singular series (singular_series(sys, p_max)).
    log_power: (beta_inf / log^t N) prod_{p <= p_max} beta_p
    integral:  prod beta_p * sum_K prod_i 1_{psi_i>2}/log psi_i
    Returns (prediction, ss).
    """
    if ss.vanishing:
        return 0.0, ss
    n = body.box_bound
    if mode == "log_power":
        beta_inf, _ = geometry.archimedean_factor(body, sys)
        return ss.truncated_product * beta_inf / math.log(n) ** sys.t, ss
    if mode != "integral":
        raise ValueError(f"unknown mode {mode!r}")
    # point count picks the evaluation route
    npoints = body.lattice_point_count()
    if npoints <= EXACT_INTEGRAL_POINT_GUARD or body.dim != 2:
        val = _integral_sum_exact(sys, body)
    else:
        val = _integral_sum_quadrature(sys, body)
    return ss.truncated_product * val, ss


# ---------------------------------------------------------------------------
# comparison reports


@dataclass
class CorrelationReport:
    empirical: float
    predicted_log_power: float
    predicted_integral: float
    ratio_log_power: float
    ratio_integral: float
    N: int
    meta: dict = field(default_factory=dict)

    def to_json(self):
        return {
            "empirical": self.empirical,
            "predicted_log_power": self.predicted_log_power,
            "predicted_integral": self.predicted_integral,
            "ratio_log_power": self.ratio_log_power,
            "ratio_integral": self.ratio_integral,
            "N": self.N,
            "meta": self.meta,
        }

    def csv_row(self):
        return (
            f"{self.N},{self.empirical},{self.predicted_log_power},"
            f"{self.predicted_integral},{self.ratio_log_power},"
            f"{self.ratio_integral},{self.meta.get('seconds', '')}"
        )

    csv_header = "N,empirical,pred_log,pred_int,ratio_log,ratio_int,seconds"


def compare(sys, body, p_max, tables, with_lambda_sum=False):
    """Empirical prime point count against both prediction modes.

    The report's `empirical` field is the prime point count (the quantity
    both prediction modes target); the Lambda'-weighted sum is carried in
    meta when requested.
    """
    t0 = time.perf_counter()
    empirical = prime_point_count(sys, body, tables)
    ss = singular_series(sys, p_max)
    pred_log, _ = predict(sys, body, ss, "log_power")
    pred_int, _ = predict(sys, body, ss, "integral")
    meta = {
        "system": str(sys),
        "P_max": p_max,
        "singular_series": ss.truncated_product,
        "vanishing": ss.vanishing,
    }
    if with_lambda_sum:
        meta["lambda_prime_sum"] = weighted_count(
            sys, body, ["lambda_prime"] * sys.t, tables
        )
    meta["seconds"] = round(time.perf_counter() - t0, 3)
    return CorrelationReport(
        empirical=float(empirical),
        predicted_log_power=pred_log,
        predicted_integral=pred_int,
        ratio_log_power=empirical / pred_log if pred_log else float("nan"),
        ratio_integral=empirical / pred_int if pred_int else float("nan"),
        N=body.box_bound,
        meta=meta,
    )


# ---------------------------------------------------------------------------
# Mobius / Liouville correlations


def mobius_correlation(sys, body, tables, func="mobius"):
    """N^{-d} sum over K of prod f(psi_i(n)) for f = mu or lambda."""
    if func not in ("mobius", "liouville"):
        raise ValueError("func must be 'mobius' or 'liouville'")
    total = weighted_count(sys, body, [func] * sys.t, tables)
    return total / float(body.box_bound) ** body.dim


def chowla_check(factors, n_scale, tables):
    """E_{y1,y2 <= N} lambda(prod factors) via complete multiplicativity.

    factors: homogeneous AffineForms on Z^2.  Repeated factors cancel in
    pairs (lambda^2 = 1 on nonzero values); if everything cancels the
    product is a perfect-square multiple and the check is rejected.
    """
    from .forms import FormSystem

    for f in factors:
        if f.constant != 0:
            raise ValueError("factors must be homogeneous")
    counts = {}
    for f in factors:
        key = tuple(linalg.clear_denominators(list(f.linear_coeffs)))
        counts[key] = counts.get(key, 0) + 1
    odd = [k for k, c in counts.items() if c % 2]
    if not odd:
        raise ValueError("product is a rational multiple of a perfect square")
    from .forms import AffineForm

    sys = FormSystem(tuple(AffineForm(k) for k in odd))
    body = geometry.ConvexBody.box(2, 1, n_scale)
    return mobius_correlation(sys, body, tables, func="liouville")
