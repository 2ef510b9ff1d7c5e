import math

import numpy as np
import pytest

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
        arith.lambda_bw(n, 7, wp, tables_4e6, primed=True) for n in range(1, 5001)
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
        exact = counting._integral_sum_exact(ap4, body)
        approx = counting._integral_sum_quadrature(ap4, body)
        assert approx == pytest.approx(exact, rel=1e-5)


def test_compare_report_fields(tables_1e6):
    ap3 = forms.ap_system(3)
    body = ap_body(3, 5000)
    rep = counting.compare(ap3, body, 10**4, tables_1e6, with_lambda_sum=True)
    assert rep.N == 5000
    assert rep.ratio_integral == pytest.approx(rep.empirical / rep.predicted_integral)
    assert rep.ratio_log_power == pytest.approx(rep.empirical / rep.predicted_log_power)
    assert 0.5 < rep.ratio_integral < 1.5
    assert "lambda_prime_sum" in rep.meta
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
