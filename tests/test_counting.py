import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affprimes import arith, counting, forms, geometry, localfactors


def ap_body(k, n, strict=True):
    hs = [((-1, 0), -1), ((1, k - 1), n)]
    hs.append(((0, -(k - 1)), -(k - 1) if strict else 0))
    return geometry.ConvexBody(2, hs, n)


def test_twin_prime_count(tables_1e6):
    twin = forms.system([[1], [1]], [0, 2])
    body = geometry.ConvexBody.box(1, 1, 98, box_bound=100)
    assert counting.prime_point_count(twin, body, tables_1e6) == 8


def test_constant_one_weight_counts_lattice(tables_1e6):
    ap4 = forms.ap_system(4)
    body = ap_body(4, 500, strict=False)
    val = counting.weighted_count(ap4, body, ["one"] * 4, tables_1e6)
    assert val == body.lattice_point_count()


def test_lambda_weights_match_brute_force(tables_1e6):
    ap3 = forms.ap_system(3)
    body = ap_body(3, 300, strict=False)
    fast = counting.weighted_count(ap3, body, ["lambda"] * 3, tables_1e6)
    lam = tables_1e6.von_mangoldt
    brute = 0.0
    for a in range(1, 301):
        for m in range(0, (300 - a) // 2 + 1):
            brute += lam[a] * lam[a + m] * lam[a + 2 * m]
    assert fast == pytest.approx(brute, rel=1e-12)


def test_prime_count_matches_brute_force(tables_1e6):
    ap4 = forms.ap_system(4)
    body = ap_body(4, 1000, strict=False)
    fast = counting.prime_point_count(ap4, body, tables_1e6)
    isp = tables_1e6.is_prime
    brute = sum(
        1
        for a in range(1, 1001)
        for m in range(0, (1000 - a) // 3 + 1)
        if isp[a] and isp[a + m] and isp[a + 2 * m] and isp[a + 3 * m]
    )
    assert fast == brute
    empty = geometry.ConvexBody(2, [((1, 0), 0), ((-1, 0), -1)], 10)
    assert counting.prime_point_count(ap4, empty, tables_1e6) == 0


def test_lambda_vs_lambda_prime_difference_small(tables_1e6):
    # prime powers contribute a vanishing share as the scale grows
    ap3 = forms.ap_system(3)
    ratios = []
    for n in (10**3, 10**4):
        body = ap_body(3, n, strict=False)
        a = counting.weighted_count(ap3, body, ["lambda"] * 3, tables_1e6)
        b = counting.weighted_count(ap3, body, ["lambda_prime"] * 3, tables_1e6)
        ratios.append(abs(a - b) / a)
    assert ratios[1] < ratios[0]
    assert ratios[1] < 0.05


def test_weight_concentration(tables_1e6):
    # on a body where every form value is >= N^0.9, the count carries
    # weight ~ log^t N per point
    n = 10**5
    lo = int(n**0.92)
    twin = forms.system([[1], [1]], [0, 2])
    body = geometry.ConvexBody.box(1, lo, n - 2, box_bound=n)
    cnt = counting.prime_point_count(twin, body, tables_1e6)
    wsum = counting.weighted_count(twin, body, ["lambda_prime"] * 2, tables_1e6)
    # log p in [0.92, 1] log N on this body, so the ratio sits in [1, 1/0.92^2]
    ratio = cnt * math.log(n) ** 2 / wsum
    assert 0.99 < ratio < 1.0 / 0.92**2 + 0.01


def test_reproducibility(tables_1e6):
    ap3 = forms.ap_system(3)
    body = ap_body(3, 2000, strict=False)
    a = counting.weighted_count(ap3, body, ["lambda_prime"] * 3, tables_1e6)
    b = counting.weighted_count(ap3, body, ["lambda_prime"] * 3, tables_1e6)
    assert a == b       # bit-identical


def test_lambda_bw_weight(tables_4e6):
    # weighted count with the W-tricked weight equals a direct loop
    wp = arith.w_trick(w=5)
    sys = forms.system([[1]], [0])
    body = geometry.ConvexBody.box(1, 1, 5000, box_bound=5000)
    val = counting.weighted_count(
        sys, body, ["lambda_prime_bw"], tables_4e6, wparams=wp, b_list=[7]
    )
    direct = sum(
        arith.lambda_bw_array(n, 7, wp, primed=True, n_lo=n)[0] for n in range(1, 5001)
    )
    assert val == pytest.approx(direct, rel=1e-12)


def test_predict_single_form(tables_1e6):
    # t = 1, psi(n) = n over [1, N]: log_power ~ N/log N, integral ~ li(N)
    n = 10**6
    sys = forms.system([[1]])
    body = geometry.ConvexBody.box(1, 1, n, box_bound=n)
    ss = localfactors.singular_series(sys, 10**4)
    pred_log, _ = counting.predict(sys, body, ss, "log_power")
    pred_int, _ = counting.predict(sys, body, ss, "integral")
    pi_n = int(np.count_nonzero(tables_1e6.is_prime))
    assert pred_log == pytest.approx(n / math.log(n), rel=0.01)
    assert abs(pred_int / pi_n - 1) < 0.003          # li(N) vs pi(N)
    assert abs(pred_log / pi_n - 1) > 0.05           # the cruder mode is visibly off


def test_predict_vanishing(tables_1e6):
    consec = forms.system([[1], [1]], [0, 1])
    body = geometry.ConvexBody.box(1, 1, 100, box_bound=100)
    val, ss = counting.predict(consec, body, localfactors.singular_series(consec, 100), "integral")
    assert val == 0.0 and ss.vanishing


def test_quadrature_matches_exact_sum(tables_1e6):
    ap4 = forms.ap_system(4)
    for n in (3 * 10**3, 10**4):
        body = ap_body(4, n)
        exact = counting._integral_sum_exact(ap4, body, body.lattice_point_count())
        approx = counting._integral_sum_quadrature(ap4, body.outer_values_and_bounds())
        assert approx == pytest.approx(exact, rel=1e-5)


def _quadrature_with_dg_at_nodes(sys, body, nodes=12, panels=8):
    """_integral_sum_quadrature as it was when g and g' came from one
    g_and_dg at every Gauss node over all rows at once; kept as the oracle of
    the g-only nodes and the row blocks."""
    prefix, lo, hi = body.outer_values_and_bounds()
    x1 = prefix[:, 0].astype(np.float64)
    lo = lo.astype(np.float64) - 0.5
    hi = hi.astype(np.float64) + 0.5
    keep = np.ones(len(x1), dtype=bool)
    for f in sys.forms:
        a0, a1 = f.linear_coeffs
        base = a0 * x1 + f.constant
        if a1 == 0:
            keep &= base > 2
        elif a1 > 0:
            np.maximum(lo, (2.5 - base) / a1, out=lo)
        else:
            np.minimum(hi, (2.5 - base) / a1, out=hi)
    keep &= lo < hi
    x1, lo, hi = x1[keep], lo[keep], hi[keep]

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


@st.composite
def _dim2_integrals(draw):
    """A random dim-2 body (a box cut by up to two half-planes) and 1-3 forms.

    kind "smooth": every form is x2 + a0 x1 + c with psi >= 4 at every
    lattice point of the body; "unit": inner coefficients +-1; "any":
    coefficients in [-3, 3].
    """
    n = draw(st.integers(2, 250))
    hs = [((1, 0), n), ((-1, 0), n), ((0, 1), n), ((0, -1), n)]
    coef = st.integers(-4, 4)
    for a in draw(st.lists(st.tuples(coef, coef).filter(any), max_size=2)):
        hs.append((a, draw(st.integers(0, 2 * n))))
    body = geometry.ConvexBody(2, hs, n)
    kind = draw(st.sampled_from(["smooth", "unit", "any"]))
    inner = {"smooth": st.just(1), "unit": st.sampled_from([-1, 1]), "any": st.integers(-3, 3)}[kind]
    rows = draw(st.lists(st.tuples(st.integers(-3, 3), inner).filter(any), min_size=1, max_size=3))
    consts = draw(st.lists(st.integers(-20, 20), min_size=len(rows), max_size=len(rows)))
    if kind == "smooth":
        prefix, lo, _ = body.outer_values_and_bounds()
        if len(lo):
            lowest = [int((a0 * prefix[:, 0] + lo).min()) for a0, _ in rows]
            consts = [4 - m + abs(c) for m, c in zip(lowest, consts)]
    return forms.system([list(r) for r in rows], consts), body, kind


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_dim2_integrals())
def test_quadrature_close_to_exact_sum_on_random_bodies(case):
    # The tolerance is per row of the body, in units of g_max = (1/log 3)^t,
    # the largest value of g = prod 1/log psi_i over psi_i >= 3.  Each row's
    # sum is the integral over its points' unit cells plus the g' end
    # correction, so the error sits at the two ends of the row:
    # - smooth (psi >= 4 on the body, inner coefficient +1): the cells reach
    #   psi >= 3.5, the clip to psi >= 5/2 and g's floor at psi = 3 never
    #   act, and what is left is the Euler-Maclaurin remainder after the g'
    #   term and the Gauss-Legendre error, at most 2e-4 g_max per row on 1500
    #   random bodies; allow 2e-3.  (The panels are graded from the lower end
    #   of each row, where an increasing psi has its steepest g; with inner
    #   coefficient -1 the same bodies give up to 2.7e-2.)
    # - unit (inner coefficients +-1, any constants): the clip to psi >= 5/2
    #   falls on a cell boundary, but the cell of a point with psi = 3 holds
    #   g's floor and g's steepest part, at most 0.11 g_max per row on 1500
    #   random bodies; allow 0.25.
    # - any: the clip can land anywhere in a cell, so each end may gain or
    #   lose up to one cell of an integrand <= g_max: allow 2 g_max.
    sys_, body, kind = case
    npoints = body.lattice_point_count()
    exact = counting._integral_sum_exact(sys_, body, npoints)
    approx = counting._integral_sum_quadrature(sys_, body.outer_values_and_bounds())
    rows = len(body.outer_values_and_bounds()[1])
    g_max = math.log(3) ** -sys_.t
    assert abs(approx - exact) <= rows * g_max * {"smooth": 2e-3, "unit": 0.25, "any": 2.0}[kind]


def test_quadrature_bit_identical_to_g_and_dg_nodes():
    # the AP3 / AP4 compare bodies of the hl-progressions benchmark (N = 5e4),
    # both on the quadrature route of predict
    n = 5 * 10**4
    for k in (3, 4):
        sys = forms.ap_system(k)
        body = geometry.ConvexBody(2, [((-1, 0), -1), ((0, -(k - 1)), -(k - 1)), ((1, k - 1), n)], n)
        assert body.lattice_point_count() > counting.EXACT_INTEGRAL_POINT_GUARD
        want = _quadrature_with_dg_at_nodes(sys, body).hex()
        assert counting._integral_sum_quadrature(sys, body.outer_values_and_bounds()).hex() == want
        with mock.patch.object(geometry, "RUN_BLOCK", 1000):
            assert counting._integral_sum_quadrature(sys, body.outer_values_and_bounds()).hex() == want


def test_quadrature_working_memory_bounded():
    # the compare-ap4-5e4 body of the hl-progressions benchmark: one block's
    # clipped rows and its three (nodes, RUN_BLOCK) panel buffers peak at
    # about 2.30 MiB; a block twice as wide (4.2 MiB) would pass 4 MiB
    n, k = 5 * 10**4, 4
    sys = forms.ap_system(k)
    body = geometry.ConvexBody(2, [((-1, 0), -1), ((0, -(k - 1)), -(k - 1)), ((1, k - 1), n)], n)
    runs = body.outer_values_and_bounds()
    tracemalloc.start()
    try:
        counting._integral_sum_quadrature(sys, runs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2**20


def test_quadrature_clips_rows_a_block_at_a_time():
    # the compare-ap4-5e4 body again: the rows are clipped per RUN_BLOCK block,
    # so beside one block's temporaries and the kernel's buffers only the row
    # totals are full length (about 2.3 MiB in all); clipping the whole arrays
    # before the block loop peaked at 3.65 MiB
    n, k = 5 * 10**4, 4
    sys = forms.ap_system(k)
    body = geometry.ConvexBody(2, [((-1, 0), -1), ((0, -(k - 1)), -(k - 1)), ((1, k - 1), n)], n)
    runs = body.outer_values_and_bounds()
    tracemalloc.start()
    try:
        counting._integral_sum_quadrature(sys, runs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * 2**20


def _row_quadrature_as_was(forms_, x1, lo, hi, gl_x, gl_w, panels, work):
    """_row_quadrature before its buffers: fresh arrays at every node, ones * 1/log psi
    for the first factor and wi * half * g added to the total; kept as its oracle.
    It leaves the kernel's buffers, work, unused."""
    coeffs = [(*f.linear_coeffs, f.constant) for f in forms_]
    fixed = [1.0 / np.log(np.maximum(a0 * x1 + c, 3.0)) if a1 == 0 else None for a0, a1, c in coeffs]

    def g_at(x2, derivative=False):
        g = np.ones(len(x1))
        dg_over_g = np.zeros(len(x1)) if derivative else None
        for (a0, a1, c), inv in zip(coeffs, fixed):
            if inv is None:
                vals = np.maximum(a0 * x1 + a1 * x2 + c, 3.0)
                lg = np.log(vals)
                inv = 1.0 / lg
                if derivative:
                    dg_over_g -= a1 / (vals * lg)
            g *= inv
        return g * dg_over_g if derivative else g

    span = hi - lo + 1.0
    edges = [lo + (span ** (k / panels) - 1.0) for k in range(panels + 1)]
    total = np.zeros(len(x1))
    for k in range(panels):
        a, bnd = edges[k], edges[k + 1]
        half = (bnd - a) / 2.0
        mid = (bnd + a) / 2.0
        for xi, wi in zip(gl_x, gl_w):
            total += wi * half * g_at(mid + half * xi)
    total += (g_at(lo, derivative=True) - g_at(hi, derivative=True)) / 24.0
    return total


@st.composite
def _quadrature_systems(draw):
    """A dim-2 body (a box cut by up to two half-planes) and 1-3 forms a0 x1 + a1 x2 + c, c != 0.

    Negative constants clip the low rows, some of them to nothing.
    """
    n = draw(st.integers(2, 100))
    hs = [((1, 0), n), ((-1, 0), n), ((0, 1), n), ((0, -1), n)]
    coef = st.integers(-3, 3)
    for a in draw(st.lists(st.tuples(coef, coef).filter(any), max_size=2)):
        hs.append((a, draw(st.integers(0, 2 * n))))
    pair = st.tuples(st.sampled_from([0, 1, 2]), st.sampled_from([-2, -1, 0, 1, 2, 3])).filter(any)
    rows = draw(st.lists(pair, min_size=1, max_size=3))
    consts = draw(st.lists(st.integers(-3 * n, 3 * n).filter(bool), min_size=len(rows), max_size=len(rows)))
    return forms.system([list(r) for r in rows], consts), geometry.ConvexBody(2, hs, n)


def _assert_row_quadrature_matches_oracle(sys_, body, block):
    with mock.patch.object(geometry, "RUN_BLOCK", block):
        runs = body.outer_values_and_bounds()
        got = counting._integral_sum_quadrature(sys_, runs)
        with mock.patch.object(counting, "_row_quadrature", _row_quadrature_as_was):
            want = counting._integral_sum_quadrature(sys_, runs)
    assert got.hex() == want.hex()


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_quadrature_systems(), st.sampled_from([40, geometry.RUN_BLOCK]))
def test_row_quadrature_bit_identical_to_fresh_arrays(case, block):
    _assert_row_quadrature_matches_oracle(*case, block)


@st.composite
def _clamp_skip_systems(draw):
    """A dim-2 box off the origin, maybe cut by a half-plane, and 1-3 forms a0 x1 + a1 x2 + c
    with a1 of either sign or 0, whose psi is >= 4 on most rows at the end of the row where it
    is least, so that _row_quadrature skips the clamp on some blocks.

    A constant is either 0 (the box's offset alone decides psi) or the least constant with
    psi >= 4 at that end of every row, moved by -2..30: by -1 or -2 the low rows have psi in
    [3, 4) or are clipped there, and only the blocks of the other rows skip the clamp.
    """
    x0, y0 = draw(st.integers(-40, 300)), draw(st.integers(-40, 300))
    n, m = draw(st.integers(0, 150)), draw(st.integers(0, 150))
    hs = [((1, 0), x0 + n), ((-1, 0), -x0), ((0, 1), y0 + m), ((0, -1), -y0)]
    if draw(st.booleans()):
        hs.append(((1, 1), x0 + y0 + draw(st.integers(0, n + m))))
    body = geometry.ConvexBody(2, hs, max(abs(x0), abs(y0)) + n + m)
    prefix, lo, hi = body.outer_values_and_bounds()
    pair = st.tuples(st.integers(-2, 3), st.integers(-3, 3)).filter(any)
    rows = draw(st.lists(pair, min_size=1, max_size=3))
    consts = []
    for a0, a1 in rows:
        # psi - c at the kernel's row ends lo - 1/2 and hi + 1/2 (exact in float)
        low = a0 * prefix[:, 0] + (a1 * (lo - 0.5) if a1 > 0 else a1 * (hi + 0.5))
        fit = math.ceil(4 - low.min()) if len(low) else 0
        consts.append(draw(st.one_of(st.just(0), st.integers(-2, 30).map(lambda s, fit=fit: fit + s))))
    return forms.system([list(r) for r in rows], consts), body


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_clamp_skip_systems(), st.sampled_from([40, geometry.RUN_BLOCK]))
def test_row_quadrature_clamp_skip_bit_identical(case, block):
    # blocks whose rows all have psi >= 4 at the low end skip the clamp at the
    # Gauss nodes; every other block, and every g' end, keeps it
    _assert_row_quadrature_matches_oracle(*case, block)


def test_predict_enumerates_a_dim2_body_once():
    # the point count that picks the route is summed over the runs the
    # quadrature takes; it is exact on the exact route
    ap3 = forms.ap_system(3)
    ss = localfactors.singular_series(ap3, 100)
    spy = mock.patch.object(geometry.ConvexBody, "run_blocks", autospec=True, side_effect=geometry.ConvexBody.run_blocks)
    with spy as blocks:
        counting.predict(ap3, ap_body(3, 5 * 10**4), ss)            # the quadrature route
    assert blocks.call_count == 1
    body = ap_body(3, 3000)
    with spy as blocks, mock.patch.object(counting, "_integral_sum_exact", return_value=1.0) as exact:
        counting.predict(ap3, body, ss)
    assert blocks.call_count == 1 and exact.call_args.args[2] == body.lattice_point_count()


def test_compare_report_fields(tables_1e6):
    ap3 = forms.ap_system(3)
    body = ap_body(3, 5000)
    rep = counting.compare(ap3, body, 10**4, tables_1e6)
    assert rep.N == 5000
    assert rep.ratio_integral == pytest.approx(rep.empirical / rep.predicted_integral)
    assert rep.ratio_log_power == pytest.approx(rep.empirical / rep.predicted_log_power)
    assert 0.5 < rep.ratio_integral < 1.5
    js = rep.to_json()
    assert set(js) >= {"empirical", "predicted_integral", "ratio_integral", "N"}
    row = rep.csv_row()
    assert row.startswith("5000,")


def test_mobius_correlation_small_oracle(tables_1e6):
    ap4 = forms.ap_system(4)
    body = geometry.ConvexBody.box(2, 1, 200)
    fast = counting.mobius_correlation(ap4, body, tables_1e6)
    mu = tables_1e6.mobius
    brute = sum(
        int(mu[x]) * int(mu[x + d]) * int(mu[x + 2 * d]) * int(mu[x + 3 * d])
        for x in range(1, 201)
        for d in range(1, 201)
    ) / 200.0**2
    assert fast == pytest.approx(brute, abs=1e-14)
    # liouville variant
    fastl = counting.mobius_correlation(ap4, body, tables_1e6, func="liouville")
    lam = tables_1e6.liouville
    brutel = sum(
        int(lam[x]) * int(lam[x + d]) * int(lam[x + 2 * d]) * int(lam[x + 3 * d])
        for x in range(1, 201)
        for d in range(1, 201)
    ) / 200.0**2
    assert fastl == pytest.approx(brutel, abs=1e-14)


def test_single_form_mobius_mean(tables_1e6):
    sys = forms.system([[1]])
    n = 10**6
    body = geometry.ConvexBody.box(1, 1, n, box_bound=n)
    val = counting.mobius_correlation(sys, body, tables_1e6)
    assert abs(val) < 0.005


def test_chowla(tables_1e6):
    factors = [
        forms.AffineForm((1, 0)),
        forms.AffineForm((0, 1)),
        forms.AffineForm((1, 1)),
        forms.AffineForm((1, 2)),
    ]
    val = counting.chowla_check(factors, 3000, tables_1e6)
    assert abs(val) < 0.05
    # repeated factors cancel: y1^2 * y2 reduces to the single factor y2
    rep = [forms.AffineForm((1, 0)), forms.AffineForm((1, 0)), forms.AffineForm((0, 1))]
    v2 = counting.chowla_check(rep, 500, tables_1e6)
    only = counting.chowla_check([forms.AffineForm((0, 1))], 500, tables_1e6)
    assert v2 == pytest.approx(only)
    with pytest.raises(ValueError, match="square"):
        counting.chowla_check([forms.AffineForm((1, 0))] * 2, 100, tables_1e6)


def test_table_range_guard(tables_1e6):
    sys = forms.system([[1]], [10**6])     # values beyond the table
    body = geometry.ConvexBody.box(1, 1, 100, box_bound=100)
    with pytest.raises(ValueError, match="beyond"):
        counting.weighted_count(sys, body, ["lambda"], tables_1e6)


# ---------------------------------------------------------------------------
# differential tests against brute force over _lattice_points(body)

TABLE_TOP = 64          # covers |psi| <= 3 * 3 * 5 + 12 on the generated systems


def _value_at(w, m):
    """w(m) read off the weight's table one argument at a time."""
    if w.kind == "one":
        return 1.0
    m = int(m)
    if m < 0:
        return 0.0
    if m > w.m_max:
        raise ValueError(f"weight {w.name}: argument {m} beyond table")
    return float(w.values[m])


def _lattice_points(body):
    """The lattice points of body one at a time, in the order of its runs."""
    for prefix, lo, hi in body.runs():
        for x in range(lo, hi + 1):
            yield prefix + (x,)


def _brute_terms(sys_, body, weights):
    return [
        math.prod(_value_at(w, f(p)) for f, w in zip(sys_.forms, weights))
        for p in _lattice_points(body)
    ]


PRIME_TABLES = arith.build_tables(TABLE_TOP)


def _make_weight(kind, rng):
    m = np.arange(TABLE_TOP + 1)
    if kind == "one":
        return counting.Weight(name="one", kind="one")
    if kind == "prime":
        return counting.make_weight("prime_indicator", PRIME_TABLES)
    if kind == "pm1":
        vals = rng.integers(-1, 2, size=m.size).astype(np.int8)
        return counting.Weight(name="pm1", kind="pm1", values=vals)
    support = rng.random(m.size) < 0.5
    if kind == "sparse":
        vals = np.where(support, rng.integers(1, 4, size=m.size), 0)
        return counting.weight_from_table("sparse", vals, sparse=True)
    if kind == "sparse_float":
        vals = np.where(support, np.log(m + 2.0), 0.0)
        return counting.weight_from_table("sparse_float", vals, sparse=True)
    return counting.weight_from_table("float", rng.uniform(-1, 1, m.size))


@st.composite
def _count_cases(draw, pool=None):
    """(system, body, weights); pool fixes the weight kinds, else sparse-only or mixed."""
    d = draw(st.integers(1, 3))
    t = draw(st.integers(1, 3))
    coeff = st.lists(st.integers(-3, 3), min_size=d, max_size=d)
    rows = [draw(coeff.filter(any)) for _ in range(t)]
    consts = draw(st.lists(st.integers(-12, 12), min_size=t, max_size=t))
    # ConvexBody adds the box [-n, n]^d; extra halfspaces may empty it
    hs = draw(st.lists(st.tuples(coeff, st.integers(-6, 6)), max_size=3))
    n = draw(st.integers(1, 5))
    if pool is None:
        sparse = ("sparse", "sparse_float")
        pool = sparse if draw(st.booleans()) else sparse + ("pm1", "float", "one")
    kinds = draw(st.lists(st.sampled_from(pool), min_size=t, max_size=t))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    weights = [_make_weight(k, rng) for k in kinds]
    return forms.system(rows, consts), geometry.ConvexBody(d, hs, n), weights


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_count_cases())
def test_weighted_count_matches_brute_force(case):
    # the sparse, +-1 int8 and float drivers (tiles and per run) against
    # _value_at over the lattice points; integer-valued weights exactly, float
    # ones to 1e-12 of sum |term|.  No prime weight is drawn, and the +-1 bit
    # planes need longer segments: their brute-force tests are their own.
    sys_, body, weights = case
    fast = counting.weighted_count(sys_, body, weights)
    terms = _brute_terms(sys_, body, weights)
    if all(w.kind != "float" and w.name != "sparse_float" for w in weights):
        assert fast == sum(terms)
    else:
        assert abs(fast - math.fsum(terms)) <= 1e-12 * math.fsum(map(abs, terms))
    # per-run partials combined by fsum: tiny blocks give the same bits, and a
    # chunk budget of 5 elements makes the +-1 route split rows and stack them
    with mock.patch.object(geometry, "RUN_BLOCK", 3), mock.patch.object(counting, "CAND_BLOCK", 5), \
            mock.patch.object(counting, "PM1_CHUNK", 5):
        assert counting.weighted_count(sys_, body, weights).hex() == fast.hex()


def test_every_route_meets_a_brute_force_oracle(rng):
    # each driver of the engine, and each route of the exact integral, is
    # reached at least once while its result is checked against _value_at
    # over _lattice_points.  No count has three forms in two variables, so
    # none takes the Fourier route; test_fourier_route_matches_driver covers
    # it.  Every float row is read in a tile (_block_view): multi-row tiles
    # on the square, a row reaching negative arguments in dim 1, and on the
    # triangle's slanted facet tiles cut back to their first row by a table
    # sized to the bound over K (the same count over a longer table takes
    # fewer tiles, with the same bits).  PM1_CHUNK = 8 sends the +-1 square
    # to the bit planes unless a varying form has inner coefficient -1; a
    # +-1 table without zeros is read on its sign planes alone.
    def g(m):
        return 1.0 / math.log(m) if m > 2 else 0.0

    block_view = counting._block_view
    float_tiles = []            # per count, (rows, columns, reads m < 0) of each float form's tile view

    def spy_view(w, o, rs, cs, rows, a, b):
        if w.kind == "float":
            float_tiles[-1].append((rows, b - a + 1, counting._argument_range(o, rs, cs, rows, a, b)[0] < 0))
        return block_view(w, o, rs, cs, rows, a, b)

    prime = counting.make_weight("prime_indicator", PRIME_TABLES)
    pm1 = _make_weight("pm1", rng)
    signs = counting.Weight(name="signs", kind="pm1", values=rng.choice(np.array([-1, 1], np.int8), TABLE_TOP + 1))
    flt = _make_weight("float", rng)
    sparse = _make_weight("sparse", rng)
    square = geometry.ConvexBody.box(2, 0, 20)
    triangle = geometry.ConvexBody(2, [((-1, 0), 0), ((0, -1), 0), ((1, 1), 20)], 20)
    slanted = forms.system([[1, 2]], [3])
    flt_k = counting.weight_from_table("float", flt.values[:counting._form_bound(triangle, slanted.forms[0]) + 1])
    counts = [
        (forms.ap_system(4), ap_body(4, 60, strict=False), [prime] * 4),        # bitset
        (forms.system([[1, 0], [1, 1]]), square, [pm1] * 2),                   # +-1 bit planes
        (forms.system([[1, 0], [1, 1]]), square, [signs] * 2),                 # +-1 sign planes alone
        (forms.system([[1, 0], [1, -1]], [0, 20]), square, [pm1] * 2),         # +-1 int8 chunks
        (forms.system([[1, 1], [1, -1]], [0, 20]), square, [sparse] * 2),      # sparse
        (forms.system([[1, 1], [2, 1]]), square, [flt] * 2),                   # float tiles
        (forms.system([[1], [3]], [0, 2]), geometry.ConvexBody.box(1, -20, 20), [flt] * 2),  # negative arguments
        (slanted, triangle, [flt_k]),                                          # tiles cut back
        (slanted, triangle, [flt]),                                            # the same, uncut
    ]
    integrals = [
        (forms.ap_system(3), ap_body(3, 40, strict=False)),                    # 1/log table
        (forms.system([[10**8]]), geometry.ConvexBody.box(1, 1, 2)),           # 1/log per point
    ]
    spy = {name: mock.Mock(wraps=getattr(counting, name)) for name in (
        "_bitset_partial", "_pm1_bit_partials", "_int8_sum", "_sparse_partials", "_weighted_count",
        "_integral_sum_pointwise", "_shifted_planes")}
    built = []              # _shifted_planes calls per count
    got = []
    with mock.patch.multiple(counting, _block_view=spy_view, PM1_CHUNK=8, **spy):
        for sys_, body, weights in counts:
            terms = _brute_terms(sys_, body, weights)
            before = spy["_shifted_planes"].call_count
            float_tiles.append([])
            fast = counting.weighted_count(sys_, body, weights)
            got.append(fast)
            built.append(spy["_shifted_planes"].call_count - before)
            if all(w.kind != "float" for w in weights):
                assert fast == sum(terms)
            else:
                assert abs(fast - math.fsum(terms)) <= 1e-12 * math.fsum(map(abs, terms))
        for sys_, body in integrals:
            brute = math.fsum(math.prod(g(f(p)) for f in sys_.forms) for p in _lattice_points(body))
            exact = counting._integral_sum_exact(sys_, body, body.lattice_point_count())
            assert exact == pytest.approx(brute, rel=1e-12, abs=0)
    for name in ("_bitset_partial", "_pm1_bit_partials", "_int8_sum", "_sparse_partials", "_integral_sum_pointwise"):
        assert spy[name].called, name
    assert built[1:3] == [2, 1]             # nonzero and sign planes, then sign planes alone
    tiled, negative, cut, uncut = float_tiles[5:]
    assert max(rows for rows, _, _ in tiled) > 1
    assert negative == [(1, 41, True)] * 2
    assert (1, 21, False) in cut and len(cut) > len(uncut) and got[7].hex() == got[8].hex()
    assert any(c.args[2][0].name == "1/log" for c in spy["_weighted_count"].call_args_list)


def _float_driver_as_was(sys_, body, weights):
    """_weighted_count on float weights before the reused buffer: every run read through
    _run_view, astype(float64), *= and .sum(); kept as the oracle of the float driver."""
    live = [i for i, w in enumerate(weights) if w.kind != "one"]
    coeffs = np.array([f.linear_coeffs for f in sys_.forms], np.int64).reshape(sys_.t, sys_.d)
    outer = coeffs[:, :-1]
    consts = np.array([f.constant for f in sys_.forms], np.int64)
    inner = coeffs[:, -1].tolist()
    fixed = [i for i in live if inner[i] == 0]
    varying = [i for i in live if inner[i] != 0]
    partials = []
    for prefix, lo, hi in body.run_blocks():
        off = prefix @ outer.T + consts
        const = np.ones(len(lo))
        nonzero = np.ones(len(lo), bool)
        for i in fixed:
            v = counting._table_values(weights[i], off[:, i])
            nonzero &= v != 0
            const = const * v
        if fixed:
            off, lo, hi, const = off[nonzero], lo[nonzero], hi[nonzero], const[nonzero]
        if not varying:
            partials.extend((const * (hi - lo + 1)).tolist())
            continue
        for c, o, a, b in zip(const.tolist(), off[:, varying].tolist(), lo.tolist(), hi.tolist()):
            acc = None
            for i, oi in zip(varying, o):
                view = counting._run_view(weights[i], oi, inner[i], a, b)
                if acc is None:
                    acc = view.astype(np.float64)
                else:
                    acc *= view
            partials.append(c * float(acc.sum()))
    return math.fsum(partials)


@st.composite
def _float_driver_cases(draw):
    """(system, body, weights) on the float driver: float tables (float64, float32
    or int8 values, a third of them 0, some not contiguous) and 'one'.

    Half the systems have constants that keep every argument >= 0, so that
    tiles read inside the tables; half the dim-2 and dim-3 bodies are cut by a
    slanted facet in the last two coordinates, so rows are ragged; half the
    tables reach only the form's bound over K, so a tile's rectangle on such a
    facet can leave them.
    """
    d = draw(st.sampled_from([1, 2, 2, 3, 3]))
    n = draw(st.integers(1, {1: 400, 2: 40, 3: 8}[d]))
    t = draw(st.integers(1, 3))
    coef = st.integers(-3, 3)
    inner = st.sampled_from([0, 1, -1, 2, -2, 3, -3])
    rows = [draw(st.tuples(*[coef] * (d - 1), inner).filter(any)) for _ in range(t)]
    if draw(st.booleans()):
        consts = draw(st.lists(st.integers(-3 * n, 3 * n), min_size=t, max_size=t))
    else:           # every argument >= 0 on the box [-n, n]^d
        consts = [sum(map(abs, r)) * n + draw(st.integers(0, n)) for r in rows]
    hs = draw(st.lists(st.tuples(st.lists(coef, min_size=d, max_size=d), st.integers(-2 * n, 2 * n)), max_size=2))
    if d > 1 and draw(st.booleans()):
        slope = draw(st.tuples(st.integers(1, 3), st.sampled_from([-3, -2, -1, 1, 2, 3])))
        hs.append(([0] * (d - 2) + list(slope), draw(st.integers(0, 4 * n))))
    sys_, body = forms.system([list(r) for r in rows], consts), geometry.ConvexBody(d, hs, n)
    kinds = draw(st.lists(st.sampled_from(["float", "float", "one"]), min_size=t, max_size=t).filter(
        lambda k: "float" in k))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    top = max(sum(map(abs, r)) * n + abs(c) for r, c in zip(rows, consts))
    k_sized = draw(st.booleans())
    weights = []
    for f, k in zip(sys_.forms, kinds):
        if k == "one":
            weights.append(counting.Weight(name="one", kind="one"))
            continue
        size = (counting._form_bound(body, f) or 0) + 1 if k_sized else top + 1
        dtype = draw(st.sampled_from([np.float64, np.float64, np.float32, np.int8]))
        vals = (rng.uniform(-2, 2, size) * (rng.random(size) > 1 / 3)).astype(dtype)
        if draw(st.sampled_from([False, False, False, True])):
            vals = np.repeat(vals, 2)[::2]          # the same values, every other entry of a buffer
        weights.append(counting.Weight(name="float", kind="float", values=vals))
    return sys_, body, weights


@settings(max_examples=500, derandomize=True, deadline=None)
@given(_float_driver_cases(), st.sampled_from([3, geometry.RUN_BLOCK]), st.sampled_from([counting.FLOAT_TILE, 7, 1]))
def test_float_driver_bit_identical_to_run_view_loop(case, block, tile):
    # negative arguments, non-contiguous tables, zero rows of fixed forms, strides
    # up to 3, ragged rows and empty bodies, in blocks of 3 runs and of
    # RUN_BLOCK; tiles of 1 entry (every row alone), of 7 (rows longer than
    # the tile beside tiles of short rows) and of FLOAT_TILE
    sys_, body, weights = case
    with mock.patch.object(geometry, "RUN_BLOCK", block), mock.patch.object(counting, "FLOAT_TILE", tile):
        assert counting._weighted_count(sys_, body, weights).hex() == _float_driver_as_was(sys_, body, weights).hex()


def test_float_driver_rows_longer_than_the_tile():
    # a triangle whose first rows are longer than FLOAT_TILE: each is a tile
    # of one row, and the shorter rows below them go in multi-row tiles
    n = 70000
    sys_ = forms.system([[1, 1], [3, 2], [1, 0]], [2, 5, 1])
    body = geometry.ConvexBody(2, [((-1, 0), 0), ((5000, 1), n), ((0, -1), 0)], n)
    assert max(hi - lo + 1 for _, lo, hi in body.runs()) > counting.FLOAT_TILE
    rng = np.random.default_rng(7)
    weights = [counting.weight_from_table("float", rng.uniform(-1, 1, 3 * n + 1)) for _ in range(3)]
    with mock.patch.object(counting, "_block_view", wraps=counting._block_view) as spy:
        got = counting._weighted_count(sys_, body, weights)
    shapes = [(c.args[4], c.args[6] - c.args[5] + 1) for c in spy.call_args_list]
    assert any(rows == 1 and columns > counting.FLOAT_TILE for rows, columns in shapes)
    assert any(rows > 1 for rows, _ in shapes)
    assert got.hex() == _float_driver_as_was(sys_, body, weights).hex()


def _integral_sum_exact_as_was(sys_, body, npoints):
    """_integral_sum_exact with its 1/log table up to max |psi_i| over K and the
    per-run float driver (_float_driver_as_was); kept as its oracle."""
    bounds = [counting._form_bound(body, f) for f in sys_.forms]
    if None in bounds:
        return 0.0
    m_max = max(bounds)
    if m_max > sys_.t * npoints:
        return counting._integral_sum_pointwise(sys_, body)
    g = np.zeros(m_max + 1)
    g[3:] = 1.0 / np.log(np.arange(3, m_max + 1))
    return _float_driver_as_was(sys_, body, [counting.weight_from_table("1/log", g)] * sys_.t)


def _exact_integral_cases():
    twins = forms.system([[1], [1]], [0, 2])
    cases = [(forms.ap_system(3), ap_body(3, n)) for n in (40, 2000, 6000)]
    cases += [(forms.ap_system(4), ap_body(4, n)) for n in (333, 4000, 10**4)]
    cases += [(twins, geometry.ConvexBody(1, [((-1,), -1), ((1,), n - 2)], n)) for n in (50, 2 * 10**5)]
    # the strip x1 <= x2 <= x1 + 1: psi = a (x2 - x1) + 5 is at most a + 5 over K but reaches
    # about a N over K's lattice box, within t * npoints = 2 N + 2 for a = 1 and past it for a = 3
    strip = geometry.ConvexBody(2, [((1, -1), 0), ((-1, 1), 1), ((-1, 0), 0), ((1, 0), 500)], 501)
    cases += [(forms.system([[-a, a]], [5]), strip) for a in (1, 3)]
    # large coefficients over few points: 1/log point by point
    cases.append((forms.system([[1000], [1]], [0, 5]), geometry.ConvexBody.box(1, 1, 300, box_bound=300)))
    return cases


@pytest.mark.parametrize("sys_, body", _exact_integral_cases())
def test_integral_sum_exact_bit_identical_to_run_view_loop(sys_, body):
    # the table reaches K's lattice bounding box where that stays within
    # t * npoints, so the tiles on a slanted facet read inside it; the route
    # still reads the bound over K
    npoints = body.lattice_point_count()
    pointwise = max(counting._form_bound(body, f) for f in sys_.forms) > sys_.t * npoints
    with mock.patch.object(counting, "_integral_sum_pointwise", wraps=counting._integral_sum_pointwise) as spy:
        got = counting._integral_sum_exact(sys_, body, npoints)
    assert spy.called == pointwise
    assert got.hex() == _integral_sum_exact_as_was(sys_, body, npoints).hex()


def test_float_tile_buffer_bounded():
    # 4096 rows of 1000 points: a buffer over a whole block's rectangle would
    # take 31 MiB; the tiles share one buffer of FLOAT_TILE float64 entries
    sys_ = forms.system([[1, 1], [2, 1], [1, 0]], [1, 0, 0])
    body = geometry.ConvexBody.box(2, [0, 0], [4095, 999])
    w = counting.weight_from_table("float", np.linspace(1, 2, 3 * 4096 + 1000))
    tracemalloc.start()
    try:
        counting._weighted_count(sys_, body, [w] * 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * counting.FLOAT_TILE + 3 * 2**19


@pytest.mark.parametrize("n", [10**5, 10**6])
def test_float_twins_row_reads_views(n):
    # gy-verify's twins shape: one row of n = 10^5 points (and of 10^6) and
    # two float weights at arguments >= 1, over contiguous tables (one
    # strided 2-D view per form) and over the same values as every other
    # entry of a buffer (the one-row fallback of _block_view, which reads
    # _run_view).  The row is longer than the tile buffer of FLOAT_TILE
    # entries, so it is summed a pairwise-tree node at a time in that
    # buffer, the only large allocation whatever n is: the forms' reads are
    # strided views, and the fallback adds no copy.  A buffer as long as
    # the row would peak at 8n, gathering each form's values (with its
    # index array) at 5 x 8n, a stacked copy per form at 3 x 8n
    sys_ = forms.system([[1], [1]], [0, 2])
    body = geometry.ConvexBody(1, [((-1,), -1), ((1,), n)], n)
    rng = np.random.default_rng(5)
    tables = [rng.uniform(-1, 1, n + 3) for _ in range(2)]
    got = []
    for vals in (tables, [np.repeat(v, 2)[::2] for v in tables]):
        weights = [counting.weight_from_table("gy", v) for v in vals]
        with mock.patch.object(counting, "_run_view", wraps=counting._run_view) as per_row:
            tracemalloc.start()
            try:
                got.append(counting._weighted_count(sys_, body, weights))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak <= 8 * counting.FLOAT_TILE + 2**18
        assert per_row.called == (vals is not tables)
        assert got[-1].hex() == _float_driver_as_was(sys_, body, weights).hex()
    assert got[0].hex() == got[1].hex()


def _signed_permutation(sys_, body, perm, signs):
    """The system and body in the coordinates y_j = signs[j] x_perm[j]; [-N, N]^d is invariant."""
    def turn(a):
        return [a[p] * s for p, s in zip(perm, signs)]

    turned = forms.system([turn(f.linear_coeffs) for f in sys_.forms], [f.constant for f in sys_.forms])
    return turned, geometry.ConvexBody(body.dim, [(turn(a), c) for a, c in body.halfspaces], body.box_bound)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(_count_cases(pool=("pm1", "pm1", "sparse", "one", "prime", "prime")), st.data())
def test_integer_counts_invariant_under_signed_permutations(case, data):
    # a coordinate permutation with signs maps the lattice points of K one to
    # one, so integer-valued counts must not change (the +-1 and bitset
    # routes reorient)
    sys_, body, weights = case
    perm = data.draw(st.permutations(range(sys_.d)))
    signs = data.draw(st.lists(st.sampled_from([-1, 1]), min_size=sys_.d, max_size=sys_.d))
    turned_sys, turned_body = _signed_permutation(sys_, body, perm, signs)
    want = counting.weighted_count(sys_, body, weights)
    assert counting.weighted_count(turned_sys, turned_body, weights) == want


def test_pm1_route_matches_brute_force():
    # the 2-D chunks of the +-1 route on the cases their shortcuts touch, at
    # the default chunk budget and at 7 elements (multi-row chunks, split rows)
    tables = FOURIER_TABLES
    mu, lam = (counting.make_weight(f, tables) for f in ("mobius", "liouville"))
    strided = counting.Weight(name="mu", kind="pm1", values=np.repeat(tables.mobius, 2)[::2])     # not contiguous
    cases = [
        # x1 inner; one 21-row segment in which both forms go negative (per-row reads)
        (forms.system([[1, 1], [1, 2]], [-5, 0]), geometry.ConvexBody.box(2, [1, -10], [30, 10]), [mu, lam]),
        (forms.system([[1, 1], [1, 2]], [-5, 0]), geometry.ConvexBody.box(2, [1, -10], [30, 10]), [strided, mu]),
        # x3 inner; mu(x1 + x2) vanishes on rows inside each x1 segment
        (forms.system([[1, 0, 0], [1, 1, 0], [1, 0, 1], [1, 1, 1]]), geometry.ConvexBody.box(3, 1, 12), [mu] * 4),
        # dim 1, one run reaching negative arguments
        (forms.system([[1], [2]], [0, 1]), geometry.ConvexBody.box(1, -5, 40, box_bound=40), [mu, lam]),
        (forms.system([[1], [1], [1]], [0, 1, 2]), geometry.ConvexBody.box(1, 1, 300, box_bound=300), [mu] * 3),
        # x1 inner on a body without symmetries: the permutation (2, 3, 1) moves every axis
        (forms.system([[1, 2, 3], [1, 0, 2], [-1, 3, 2]], [0, 1, 40]),
         geometry.ConvexBody(3, [((1, 2, 1), 12), ((-1, 0, 0), -1), ((0, -1, 0), 0), ((0, 0, -1), -1)], 9),
         [mu, lam, mu]),
        # triangle: one-row segments
        (forms.ap_system(4), ap_body(4, 60, strict=False), [lam] * 4),
    ]
    for sys_, body, weights in cases:
        brute = sum(_brute_terms(sys_, body, weights))
        with mock.patch.object(counting, "_run_view", wraps=counting._run_view) as per_row:
            assert counting.weighted_count(sys_, body, weights) == brute
        lowest = min(counting.affine_range_over_body(body, f.linear_coeffs, f.constant)[0] for f in sys_.forms)
        assert per_row.called == (lowest < 0)
        with mock.patch.object(counting, "PM1_CHUNK", 7):
            assert counting.weighted_count(sys_, body, weights) == brute
    # Chowla with a stride-2 form on the inner coordinate: y2 stays inner
    factors = [forms.AffineForm((2, 1)), forms.AffineForm((1, 2)), forms.AffineForm((1, 0))]
    n = 40
    brute = sum(
        int(tables.liouville[2 * a + b]) * int(tables.liouville[a + 2 * b]) * int(tables.liouville[a])
        for a in range(1, n + 1) for b in range(1, n + 1)
    )
    for chunk in (counting.PM1_CHUNK, 7):
        with mock.patch.object(counting, "PM1_CHUNK", chunk):
            assert counting.chowla_check(factors, n, tables) == brute / n**2


# ---------------------------------------------------------------------------
# +-1 segments on bit planes

PM1_RANDOM = np.random.default_rng(20261019).integers(-1, 2, size=2001).astype(np.int8)
PM1_SIGNS = np.where(np.random.default_rng(20261020).random(2001) < 0.5, -1, 1).astype(np.int8)   # no zeros


@st.composite
def _pm1_segments(draw):
    """One segment of a +-1 count as _pm1_partials reads it, every argument >= 0.

    Returns (weights, steps, off, a, b, const): form i reads its weight at
    off[r, i] + x for row r and a <= x <= b, with off[r, i] = off[0, i] +
    steps[i] r.  Widths cross byte and 64-bit boundaries, heights fall below
    and above the 8 row classes, steps run over -3..3 and each form's lowest
    argument is 0, a few, or anywhere up to 1000; const holds the rows'
    fixed-form factors in {-1, 0, 1}.  In half the draws no weight vanishes
    where its form reads it (liouville from argument 1 on, or a +-1 table
    without zeros), so no form reads nonzero bits; the others mix in mobius,
    a random table with zeros and liouville from argument 0.
    """
    rows = draw(st.integers(1, 8) | st.integers(9, 24))
    width = draw(st.sampled_from([1, 7, 8, 9, 63, 64, 65, 127, 128, 129, 520]) | st.integers(1, 200))
    a = draw(st.integers(-50, 50))
    t = draw(st.integers(1, 4))
    zero_free = draw(st.booleans())
    tables = {"liouville": FOURIER_TABLES.liouville, "signs": PM1_SIGNS}
    if not zero_free:
        tables.update(mobius=FOURIER_TABLES.mobius, random=PM1_RANDOM)
    weights, steps, first = [], [], []
    for _ in range(t):
        name = draw(st.sampled_from(sorted(tables)))
        weights.append(counting.Weight(name=name, kind="pm1", values=tables[name]))
        steps.append(draw(st.integers(-3, 3) | st.integers(0, 3)))
        lowest = draw(st.sampled_from([0, 0, 1, 2]) | st.integers(0, 1000))
        if zero_free and name == "liouville":
            lowest += 1         # liouville(0) = 0
        first.append(lowest - a - min(0, steps[-1] * (rows - 1)))
    off = np.array(first, np.int64) + np.arange(rows)[:, None] * np.array(steps, np.int64)
    low = draw(st.sampled_from([1, 0, -1]))           # all 1, or in {0, 1}, or in {-1, 0, 1}
    const = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).integers(low, 2, size=rows).astype(np.int8)
    return weights, steps, off, a, a + width - 1, const


def _segment_partials(weights, steps, off, a, b, const, bits):
    """The partials of _pm1_partials on the segment, and whether it took the bit path."""
    rows, t = off.shape
    prefix = np.arange(rows, dtype=np.int64)[:, None] + 7       # prefixes step by +1: one segment
    lo, hi = np.full(rows, a, np.int64), np.full(rows, b, np.int64)
    with mock.patch.object(counting, "_pm1_bit_partials", wraps=counting._pm1_bit_partials) as bit_path:
        partials = list(counting._pm1_partials(weights, list(range(t)), [1] * t, steps,
                                               prefix, off, lo, hi, const, bits))
    assert all(type(p) is int for p in partials)
    return partials, bit_path.called


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_pm1_segments(), st.sampled_from([2, 18, 50, 2**20]))
def test_pm1_bit_partials_match_brute_force_and_int8(case, chunk):
    # PM1_CHUNK = 1 sends every segment to the bit path; accumulators of 1, 9
    # or 25 bytes split rows and columns.  Its partials sum to _value_at over
    # the segment and to the int8 chunks' partials (bits=None).  Each weight
    # gets its sign planes, and its nonzero planes only if it has a zero
    # between the lowest argument of one of its forms and the largest argument.
    weights, steps, off, a, b, const = case
    args = off[:, :, None] + np.arange(a, b + 1)          # args[r, i, x - a]
    m_hi = int(args.max())
    values = [np.array([_value_at(w, m) for m in range(m_hi + 1)]) for w in weights]
    terms = const[:, None] * np.prod([v[args[:, i]] for i, v in enumerate(values)], axis=0)
    brute = int(terms.sum())
    with mock.patch.object(counting, "PM1_CHUNK", 1), mock.patch.object(counting, "BITSET_CHUNK", chunk), \
            mock.patch.object(counting, "_shifted_planes", wraps=counting._shifted_planes) as planes:
        bit, took = _segment_partials(weights, steps, off, a, b, const, {"m_hi": m_hi})
    int8, int8_took = _segment_partials(weights, steps, off, a, b, const, None)
    assert took and not int8_took
    assert sum(bit) == sum(int8) == brute
    vanish = {id(w) for w, low in zip(weights, args.min(axis=(0, 2))) if not w.values[low:m_hi + 1].all()}
    assert planes.call_count == len({id(w) for w in weights}) + len(vanish)


def _bit_route(sys_, body, weights, tables=None):
    """(weighted_count, whether a segment took the bit path)."""
    with mock.patch.object(counting, "_pm1_bit_partials", wraps=counting._pm1_bit_partials) as bit_path:
        count = counting.weighted_count(sys_, body, weights, tables)
    return count, bit_path.called


def _planes_built(count, *args):
    """(count(*args), the number of _shifted_planes calls it made)."""
    with mock.patch.object(counting, "_shifted_planes", wraps=counting._shifted_planes) as planes:
        return count(*args), planes.call_count


def test_pm1_bit_route_spy():
    # at the default sizes, AP4 on a square box (one 1100 x 1100 segment) and
    # the Chowla box take bits, each equal to the int8 count (PM1_CHUNK past
    # every segment); the cube, the triangle, a stride-2 inner form and inner
    # coefficients -1 stay on int8.  Over [1, n]^2 liouville is read at
    # arguments >= 1, where it never vanishes: its sign planes alone are
    # built, while mobius builds its nonzero planes too.
    n = 1100
    tables = arith.build_tables(4 * n + 2)
    ap4 = forms.ap_system(4)
    square = geometry.ConvexBody.box(2, 1, n)
    factors = [forms.AffineForm((1, 0)), forms.AffineForm((0, 1)), forms.AffineForm((1, 1)), forms.AffineForm((1, 2))]
    chowla_tables = arith.build_tables(4 * 3000 + 2)
    for f in ("mobius", "liouville"):
        (count, took), built = _planes_built(_bit_route, ap4, square, [f] * 4, tables)
        assert built == (2 if f == "mobius" else 1)
        with mock.patch.object(counting, "PM1_CHUNK", 2**40):
            assert _bit_route(ap4, square, [f] * 4, tables) == (count, False)
        assert took
        # x1 -> n + 1 - x1 maps the box onto itself: inner coefficient -1, the same count
        reversed_ap4 = forms.system([[-1, k] for k in range(4)], [n + 1] * 4)
        assert _bit_route(reversed_ap4, square, [f] * 4, tables) == (count, False)
    with mock.patch.object(counting, "_pm1_bit_partials", wraps=counting._pm1_bit_partials) as bit_path:
        chowla, built = _planes_built(counting.chowla_check, factors, 3000, chowla_tables)
    assert bit_path.called and built == 1
    with mock.patch.object(counting, "PM1_CHUNK", 2**40):
        assert counting.chowla_check(factors, 3000, chowla_tables) == chowla
    cube = forms.system([[1, 0, 0], [1, 1, 0], [1, 0, 1], [1, 1, 1]])
    assert not _bit_route(cube, geometry.ConvexBody.box(3, 1, 300), ["mobius"] * 4, chowla_tables)[1]
    assert not _bit_route(ap4, ap_body(4, 3000, strict=False), ["mobius"] * 4, chowla_tables)[1]
    stride2 = [forms.AffineForm((2, 1)), forms.AffineForm((1, 2)), forms.AffineForm((1, 0))]
    with mock.patch.object(counting, "_pm1_bit_partials", wraps=counting._pm1_bit_partials) as bit_path:
        counting.chowla_check(stride2, 2000, chowla_tables)
    assert not bit_path.called


def test_pm1_bit_planes_stop_at_the_form_bound(tables_1e6):
    # criterion 11's 10^6-entry table and AP4 on [1, 10^4]^2: the forms reach
    # 4 10^4, and the planes are built that far, not over the whole table
    n = 10**4
    ap4 = forms.ap_system(4)
    square = geometry.ConvexBody.box(2, 1, n)
    with mock.patch.object(counting, "_shifted_planes", wraps=counting._shifted_planes) as planes:
        count, took = _bit_route(ap4, square, ["mobius"] * 4, tables_1e6)
    assert took and planes.called
    assert all(len(bits) <= 4 * n + 1 and nbytes <= (4 * n + 1) // 8 + 2 for (bits, nbytes), _ in planes.call_args_list)
    assert _bit_route(ap4, square, ["mobius"] * 4, arith.build_tables(4 * n)) == (count, True)
    with mock.patch.object(counting, "PM1_CHUNK", 2**40):
        assert _bit_route(ap4, square, ["mobius"] * 4, tables_1e6) == (count, False)


def test_negative_arguments_of_sparse_and_pm1_weights(tables_1e6):
    # a sparse weight vanishes at negative arguments, on the driving form and
    # on the filtered one, and a +-1 weight once read a wrong table slice at one
    vals = np.arange(TABLE_TOP + 1) % 3
    w = counting.weight_from_table("mod3", vals, sparse=True)
    body = geometry.ConvexBody.box(1, -20, 20, box_bound=20)
    for sys_ in (forms.system([[1]]), forms.system([[1], [1]], [0, 2])):
        got = counting.weighted_count(sys_, body, [w] * sys_.t)
        assert got == sum(_brute_terms(sys_, body, [w] * sys_.t)) > 0
    shifted = forms.system([[1]], [-5])
    body = geometry.ConvexBody.box(1, 1, 10, box_bound=10)
    mu = counting.make_weight("mobius", tables_1e6)
    assert counting.weighted_count(shifted, body, [mu]) == sum(_brute_terms(shifted, body, [mu])) == -2


def test_integral_sum_exact_matches_brute_force(tables_1e6):
    # forms that reach 2 or below (or negative values) contribute 0
    def g(m):
        return 1.0 / math.log(m) if m > 2 else 0.0

    twins = forms.system([[1], [1]], [0, 2])
    cases = [
        (forms.ap_system(3), ap_body(3, 40, strict=False)),
        (forms.system([[1, -1], [2, 1]], [-5, 3]), geometry.ConvexBody.box(2, -8, 12)),
        (forms.system([[1, 1, -1], [1, 2, 1]], [0, 4]), geometry.ConvexBody.box(3, -3, 7)),
        (forms.system([[1]], [-30]), geometry.ConvexBody.box(1, 1, 200, box_bound=200)),
        (twins, geometry.ConvexBody(1, [((1,), 0), ((-1,), -1)], 5)),
        # the largest |psi| sits on a fractional vertex (x = 21/2, x = 5/2)
        (twins, geometry.ConvexBody(1, [((-1,), -1), ((2,), 21)], 21)),
        (forms.system([[1]]), geometry.ConvexBody(1, [((-1,), -1), ((2,), 5)], 5)),
        (forms.system([[-2, 1], [3, 1]], [7, 0]), geometry.ConvexBody(2, [((3, 2), 40), ((-1, 0), 0), ((0, -1), 0)], 40)),
        # ranges far longer than the point count: 1/log evaluated per point
        (forms.system([[10**8]]), geometry.ConvexBody.box(1, 1, 2)),
        (forms.system([[1000], [1]], [0, 5]), geometry.ConvexBody.box(1, 1, 300, box_bound=300)),
    ]
    for sys_, body in cases:
        brute = math.fsum(math.prod(g(f(p)) for f in sys_.forms) for p in _lattice_points(body))
        npoints = body.lattice_point_count()
        assert counting._integral_sum_exact(sys_, body, npoints) == pytest.approx(brute, rel=1e-12, abs=0)
        assert counting._integral_sum_pointwise(sys_, body) == pytest.approx(brute, rel=1e-12, abs=0)
    # a whole comparison on a body with a fractional vertex (2n <= 21)
    rep = counting.compare(twins, cases[5][1], 100, tables_1e6)
    assert rep.empirical == 2 and rep.predicted_integral > 0


# ---------------------------------------------------------------------------
# the bitset route (prime-indicator counts, the W-trick)

BITSET_TABLES = arith.build_tables(4000)     # covers |psi| <= 3 * 600 * 2 + 12 on the generated systems


@st.composite
def _bitset_cases(draw):
    """(system, body, weights, expected): inner coefficients in {-1, 0, 1}, prime and 'one' weights.

    Bodies are small boxes cut by extra halfspaces (possibly empty), long
    dim-1 intervals (off the route) or dim-2 strips of long rows in either
    coordinate (slices of many bytes).  Constants in -12..12 make forms reach 2 and 3 and
    negative values.  expected says whether the route applies: K has
    dimension >= 2 (a dim-1 count takes the sparse driver) and every
    coordinate is read by some prime-weighted form, so the unit-stride
    coordinate has varying forms.
    """
    d = draw(st.integers(1, 3))
    t = draw(st.integers(1, 4))
    row = st.tuples(st.lists(st.integers(-3, 3), min_size=d - 1, max_size=d - 1), st.sampled_from([-1, 0, 1]))
    rows = [draw(row.map(lambda r: r[0] + [r[1]]).filter(any)) for _ in range(t)]
    consts = draw(st.lists(st.integers(-12, 12), min_size=t, max_size=t))
    one = draw(st.lists(st.integers(0, 4), min_size=t, max_size=t))
    live = [i for i in range(t) if one[i]] or [0]
    n = draw(st.integers(1, 8) | st.integers(400, 3000)) if d == 1 else draw(st.integers(1, 8))
    hs = draw(st.lists(st.tuples(st.lists(st.integers(-3, 3), min_size=d, max_size=d), st.integers(-6, 6)),
                       max_size=2))
    if d == 2 and draw(st.booleans()):
        n = draw(st.integers(100, 600))
        k = draw(st.integers(0, 1))             # a strip 3 wide in x_(k+1)
        a = draw(st.integers(-n, n - 2))
        e = [int(j == k) for j in range(2)]
        hs = [(e, a + 2), ([-x for x in e], -a)]
    body = geometry.ConvexBody(d, hs, n)
    prime = counting.make_weight("prime_indicator", BITSET_TABLES)
    weights = [prime if i in live else counting.Weight(name="one", kind="one") for i in range(t)]
    expected = d > 1 and all(any(rows[i][j] for i in live) for j in range(d))
    return forms.system(rows, consts), body, weights, expected


def _user_prime(tables):
    """The prime indicator as a user-built Weight: the same tables, off the bitset route."""
    return counting.Weight(name="prime_indicator", kind="sparse", values=tables.prime_mask,
                           support_mask=tables.prime_mask, support_list=tables.primes)


def _engine_count(sys_, body, weights):
    """(_weighted_count, whether it took the bitset route); _bit_planes runs once per bitset count.

    The engine reorients at most once, whichever driver it picks.
    """
    with mock.patch.object(counting, "_bit_planes", wraps=counting._bit_planes) as planes, \
            mock.patch.object(counting, "_unit_stride", wraps=counting._unit_stride) as stride:
        count = counting._weighted_count(sys_, body, weights)
    assert stride.call_count <= 1
    return count, planes.called


@settings(max_examples=200, derandomize=True, deadline=None)
@given(_bitset_cases())
def test_bitset_route_matches_brute_force_and_driver(case):
    # the engine's integer against _value_at over the lattice points and the
    # sparse driver (the user-built weight), at the default sizes and with
    # AND buffers of 1 or 3 bytes (one slice each, or several) and 3-row blocks
    sys_, body, weights, expected = case
    brute = sum(_brute_terms(sys_, body, weights))
    user = [w if w.kind == "one" else _user_prime(BITSET_TABLES) for w in weights]
    assert _engine_count(sys_, body, user) == (brute, False)
    assert _engine_count(sys_, body, weights) == (brute, expected)
    if not expected:
        return
    for chunk in (1, 3):
        with mock.patch.object(counting, "BITSET_CHUNK", chunk), mock.patch.object(geometry, "RUN_BLOCK", 3):
            assert _engine_count(sys_, body, weights) == (brute, True)


def test_bitset_route_cases():
    # points where forms divide W, counted once; a user-built weight (sparse
    # driver), a stride-2 inner coordinate (float driver) and a dim-1 body
    # (sparse driver) miss the route.  The dim-1 cases are read on the rows
    # x2 = 0 and 1 of x1 + 2 x2 over [1, n] x [0, 1], inner coordinate x1.
    tables = BITSET_TABLES
    prime = counting.make_weight("prime_indicator", tables)
    lines = geometry.ConvexBody.box(2, [1, 0], [3000, 1])
    cases = [
        (forms.system([[1, 2], [1, 2]], [0, 1]), lines, 1),             # (2, 3): two forms divide W at one point
        (forms.system([[1, 2]] * 3, [0, 2, 4]), lines, 2),              # (3, 5, 7) on both rows
        (forms.system([[1, 2], [-1, -2]], [0, 3000]), lines, 2 * 208),  # ordered Goldbach pairs of 3000, twice
        # twins on 1..768 and 3..770: 128 points per class, slices of whole bytes (no tail to clear)
        (forms.system([[1, 2], [1, 2]], [0, 2]), geometry.ConvexBody.box(2, [1, 0], [768, 1]), None),
        (forms.ap_system(4), ap_body(4, 400, strict=False), None),
    ]
    for sys_, body, want in cases:
        weights = [prime] * sys_.t
        brute = sum(_brute_terms(sys_, body, weights))
        assert want is None or brute == want
        assert counting.weighted_count(sys_, body, weights) == brute
        for chunk in (counting.BITSET_CHUNK, 1, 7):
            with mock.patch.object(counting, "BITSET_CHUNK", chunk):
                assert _engine_count(sys_, body, weights) == (brute, True)
    misses = [
        (forms.ap_system(4), ap_body(4, 300), [_user_prime(tables)] * 4),
        # 2x + 1 and 2x + 3 on 1..1500 stay inside the table
        (forms.system([[2], [2]], [1, 3]), geometry.ConvexBody.box(1, 1, 1500, box_bound=1500), [prime] * 2),
        (forms.system([[1], [1]], [0, 2]), geometry.ConvexBody.box(1, 1, 3000, box_bound=3000), [prime] * 2),
    ]
    for sys_, body, weights in misses:
        assert _engine_count(sys_, body, weights) == (sum(_brute_terms(sys_, body, weights)), False)


def _sliding_bit_planes(mask):
    """_bit_planes as first written, one sliding window per plane: the oracle of _shifted_planes."""
    W = counting.BITSET_W
    units = [r for r in range(W) if math.gcd(r, W) == 1]
    k = -(-len(mask) // W)
    planes = np.zeros((len(units), 2, 8, k // 8 + 2), np.uint8)
    for u, r in enumerate(units):
        col = np.zeros(k + 8, np.uint8)
        col[:len(mask[r::W])] = mask[r::W]
        for o, bits in enumerate((col, np.concatenate([col[k - 1::-1], col[k:]]))):
            packed = np.packbits(np.lib.stride_tricks.sliding_window_view(bits, k)[:8], axis=1)
            planes[u, o, :, :packed.shape[1]] = packed
    plane_of = np.array([16 * units.index(r) if r in units else -1 for r in range(W)])
    return planes.reshape(len(units) * 16, -1), plane_of, k - 1


def test_bit_planes_bytes_equal_sliding_windows():
    # the prime planes built through _shifted_planes, on prefixes of the mask
    # that give every k mod 8 and short columns
    mask = BITSET_TABLES.prime_mask
    for n in [*range(1, 120), 3995, 3996, 4000, len(mask)]:
        got, want = counting._bit_planes(mask[:n]), _sliding_bit_planes(mask[:n])
        assert got[0].dtype == want[0].dtype and got[0].shape == want[0].shape
        assert got[0].tobytes() == want[0].tobytes()
        assert np.array_equal(got[1], want[1]) and got[2] == want[2]


# ---------------------------------------------------------------------------
# the Fourier route (three forms in two variables, integer weights)

FOURIER_TABLES = arith.build_tables(2000)
FOURIER_WEIGHTS = ("prime_indicator", "mobius", "liouville")


def _times(row, mat):
    return [sum(r * m for r, m in zip(row, col)) for col in zip(*mat)]


@st.composite
def _fourier_cases(draw):
    """(system, body, weights, variant) with psi_3 = al y1 + be y2 (+ constants), y = U x.

    The relation (al, be, -1) has equal entries for a pair of forms when
    al = -1, be = -1 or al = be; such a pair may carry an order facet.  The
    variant "in" stays in the route's class; the others leave it.
    """
    al = draw(st.sampled_from([-2, -1, 1, 2, 3]))
    be = draw(st.sampled_from([-2, -1, 1, 2]))
    u = draw(st.tuples(*[st.integers(-2, 2)] * 4).filter(lambda m: abs(m[0] * m[3] - m[1] * m[2]) == 1))
    perm = draw(st.permutations(range(3)))
    rel = [(al, be, -1)[p] for p in perm]
    variant = draw(st.sampled_from(["in", "in", "in", "float", "index2", "mixed", "asym_order", "asym_bounds"]))
    umat = [[u[0], u[1]], [u[2], u[3]]]
    if variant == "index2":          # Psi(Z^2) of index 2 in the lattice of the relation
        umat = [[u[0], 2 * u[1]], [u[2], 2 * u[3]]]
    rows = [_times([[1, 0], [0, 1], [al, be]][p], umat) for p in perm]
    consts = draw(st.lists(st.integers(-4, 4), min_size=3, max_size=3))

    def bound(i, lower, value):      # psi_i >= value (lower) or psi_i <= value
        s = -1 if lower else 1
        return ([s * x for x in rows[i]], s * (value - consts[i]))

    pairs = [(i, j) for i in range(3) for j in range(3) if i != j and rel[i] == rel[j]]
    order = draw(st.sampled_from(pairs)) if pairs and draw(st.integers(0, 3)) else None
    if variant.startswith("asym") and order is None:
        variant = "in"
    lows = draw(st.lists(st.integers(-3, 6), min_size=3, max_size=3))
    widths = draw(st.lists(st.integers(3, 30), min_size=3, max_size=3))
    hs = []
    if order:                        # psi_j < psi_i (or <=), psi_j >= low, psi_i <= high
        j, i = order
        k = 3 - i - j
        strict = draw(st.booleans())
        g = math.gcd(*(x - y for x, y in zip(rows[j], rows[i])))
        top = -1 - 2 * g if variant == "asym_order" else (-1 if strict else 0)
        hs.append(([x - y for x, y in zip(rows[j], rows[i])], top - consts[j] + consts[i]))
        hs += [bound(j, True, lows[j]), bound(i, False, lows[j] + 2 * g + widths[j])]
        if variant == "asym_bounds":  # a lower bound on psi_i that psi_j's does not imply
            hs.append(bound(i, True, max(lows[j] + 2, 1)))
    else:
        k = draw(st.integers(0, 2))
        for i in range(3):
            if i != k:
                hs += [bound(i, True, lows[i]), bound(i, False, lows[i] + widths[i])]
    # shift the third form to start near 0 over the body so far, then bound it
    # around its range; the top of the range gives degenerate and empty bodies
    rlo, rhi = counting.affine_range_over_body(geometry.ConvexBody(2, hs, 1000), rows[k], 0)
    if rlo is not None:
        consts[k] = draw(st.integers(-2, 3)) - math.floor(rlo)
        if not variant.startswith("asym"):
            top = math.ceil(rhi - rlo) + 2 if draw(st.integers(0, 5)) == 5 else math.ceil(rhi - rlo)
            lo_k = draw(st.integers(-3, top))
            hs += [bound(k, True, lo_k), bound(k, False, lo_k + widths[k])]
    body = geometry.ConvexBody(2, hs, 1000)
    verts = body.vertices()
    if variant == "mixed" and len(verts) >= 3:
        # a cut through the vertex centroid along no form and no difference of forms
        normals = [tuple(r) for r in rows] + [
            tuple(x - y for x, y in zip(rows[i], rows[j])) for i in range(3) for j in range(3) if i != j
        ]
        h = next(h for h in [(1, 3), (3, -1), (2, 5), (5, -2), (4, 7)]
                 if all(h[0] * n[1] != h[1] * n[0] for n in normals))
        centre = [sum(v[c] for v in verts) / len(verts) for c in range(2)]
        body = body.intersect([(h, h[0] * centre[0] + h[1] * centre[1])])
    names = [draw(st.sampled_from(FOURIER_WEIGHTS)) for _ in range(3)]
    if order:
        names[order[0]] = names[order[1]]
    weights = [counting.make_weight(n, FOURIER_TABLES) for n in names]
    if variant == "float":
        weights[draw(st.integers(0, 2))] = counting.weight_from_table("float", FOURIER_TABLES.prime_mask)
    return forms.system(rows, consts), body, weights, variant


@settings(max_examples=400, derandomize=True, deadline=None)
@given(_fourier_cases())
def test_fourier_route_matches_driver(case):
    # in the class (full-dimensional K) the route is taken and equals the
    # driver's integer; float weights, an index-2 image lattice, a mixed
    # facet and asymmetric order facets fall back to the driver
    sys_, body, weights, variant = case
    route = counting._fourier_count(sys_, body, weights)
    driver = counting._weighted_count(sys_, body, weights)
    assert counting.weighted_count(sys_, body, weights).hex() == driver.hex()
    if variant == "in":
        assert route is not None or len(body.vertices()) < 3
        assert route is None or route.hex() == driver.hex()
    else:
        assert route is None


def test_fourier_route_goldens():
    # strict AP3 and Vinogradov at the benchmark sizes, both on the route
    tables = arith.build_tables(50003)
    ap3 = forms.ap_system(3)
    vino = forms.vinogradov_system(50001)
    vino_body = geometry.ConvexBody(2, [((-1, 0), -1), ((0, -1), -1), ((1, 1), 50001)], 50001)
    for sys_, body, want in ((ap3, ap_body(3, 50000), 873953), (vino, vino_body, 2333238)):
        weights = [counting.make_weight("prime_indicator", tables)] * 3
        assert counting._fourier_count(sys_, body, weights) == want
        assert counting.prime_point_count(sys_, body, tables) == want


def test_weights_resolved_once(tables_1e6):
    # one prime-indicator weight, backed by the uint8 prime mask, for all four forms
    w = counting.make_weight("prime_indicator", tables_1e6)
    assert w.values is tables_1e6.prime_mask and w.values.dtype == np.uint8
    body = ap_body(4, 1000, strict=False)
    with mock.patch.object(counting, "make_weight", wraps=counting.make_weight) as made:
        counting.prime_point_count(forms.ap_system(4), body, tables_1e6)
    assert made.call_count == 1


def test_lambda_bw_weight_values():
    # the W-tricked weight spans the form values n <= tables.n_max, like every
    # selector; it is (phi(W)/W) Lambda(W n + b) read off the dense table of
    # W n_max + W at every n >= 1 (and arith.lambda_bw_array at a few), 0 at n = 0
    tables = arith.build_tables(3000)
    wp = arith.w_trick(w=5)
    dense = arith.build_tables(wp.W * tables.n_max + wp.W)
    for name, primed in (("lambda_bw", False), ("lambda_prime_bw", True)):
        table = dense.von_mangoldt_prime if primed else dense.von_mangoldt
        for b in wp.residues:
            vals = counting.make_weight(name, tables, wparams=wp, b=b).values
            assert len(vals) == tables.n_max + 1
            assert vals[0] == 0.0
            want = wp.normalizer * table[wp.W + b:: wp.W][: tables.n_max]
            assert vals[1:].tobytes() == want.tobytes()
            for n in (1, 2, 4, 77, tables.n_max):
                assert vals[n] == arith.lambda_bw_array(n, b, wp, primed, n_lo=n)[0]
