"""Acceptance criteria, one test per criterion (split where a criterion has
independent parts).  Each test prints a PASS/FAIL line (visible with -s).

Criterion 8a is expected to fail: at the stated gamma = 1/20 the truncation
R = N^gamma is below 2 for every desk-scale N, so the divisor sums collapse
to the constant log R and the empirical/predicted ratio is analytically
forced to (gamma log N)^2 / (twin singular product) ~ 0.25, outside
[0.85, 1.15].  See notes/decisions.md; the same machinery passes the stated
bracket at viable truncations (tests/test_gysieve.py).
"""

import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from affprimes import (
    arith,
    counting,
    forms,
    geometry,
    gowers,
    gysieve,
    localfactors as lf,
    nilseq,
)


def report(name, ok, detail=""):
    print(f"{'PASS' if ok else 'FAIL'}  {name}  {detail}")
    return ok


def ap_body(k, n, strict=True):
    hs = [((-1, 0), -1), ((1, k - 1), n)]
    hs.append(((0, -(k - 1)), -(k - 1) if strict else 0))
    return geometry.ConvexBody(2, hs, n)


# -- criterion 1 -------------------------------------------------------------


def test_criterion_01_singular_series_constants():
    ap4 = forms.ap_system(4)
    t0 = time.time()
    s1 = 0.75 * lf.singular_series(ap4, 10**6, min_prime=5).truncated_product
    t1 = time.time() - t0
    ex19 = forms.system([[1, 0], [0, 1], [1, 1], [1, 2]], [0, 0, -1, -2])
    t0 = time.time()
    s2 = lf.singular_series(ex19, 10**6, min_prime=3).truncated_product
    t2 = time.time() - t0
    ok = (
        abs(s1 - 0.4764) <= 5e-5
        and abs(s2 - 1.0481) <= 5e-5
        and t1 < 5.0
        and t2 < 5.0
    )
    assert report(
        "criterion 1: singular series constants",
        ok,
        f"S1={s1:.6f} ({t1:.2f}s) S2={s2:.6f} ({t2:.2f}s)",
    )


# -- criterion 2 -------------------------------------------------------------


def test_criterion_02_local_factor_goldens():
    ap4 = forms.ap_system(4)
    ok = lf.local_factor(ap4, 2) == 4 and lf.local_factor(ap4, 3) == Fraction(9, 8)
    primes = [int(p) for p in np.nonzero(arith.prime_sieve(97))[0]]
    for k in range(1, 7):
        sysk = forms.ap_system(k) if k >= 2 else forms.system([[1]])
        for p in primes:
            if k >= 2:
                ok = ok and lf.ap_k_local_factor(k, p) == lf.local_factor(sysk, p)
            else:
                ok = ok and lf.ap_k_local_factor(1, p) == 1
    assert report("criterion 2: local factor goldens", ok, "beta_2=4 beta_3=9/8; k<=6 p<=97 exact")


# -- criterion 3 -------------------------------------------------------------


def test_criterion_03_archimedean_and_volume_packing(rng):
    n = 3000
    body = geometry.ConvexBody(2, [((-1, 0), -1), ((0, -3), 0), ((1, 3), n)], n)
    count, _ = geometry.archimedean_factor(body, forms.ap_system(4))
    ok = abs(count - n**2 / 6) <= 0.01 * n**2 / 6
    detail = f"count={count} N^2/6={n**2 / 6:.0f}"
    c_d = {2: 12, 3: 40}
    for d in (2, 3):
        for _ in range(8):
            m = int(rng.integers(10, 25))
            while True:
                verts = [
                    [Fraction(int(rng.integers(-m, m + 1))) for _ in range(d)]
                    for _ in range(d + 1)
                ]
                vol = geometry.volume_simplex(verts)
                if vol > 0:
                    break
            simplex = geometry.simplex_body(verts, m)
            cnt = simplex.lattice_point_count()
            ok = ok and abs(cnt - float(vol)) <= c_d[d] * m ** (d - 1)
    assert report("criterion 3: archimedean factor + volume packing", ok, detail)


# -- criterion 4 -------------------------------------------------------------


def test_criterion_04_hardy_littlewood_comparison(tables_1e6):
    ap4, ap3 = forms.ap_system(4), forms.ap_system(3)
    r4_small = counting.compare(ap4, ap_body(4, 10**4), 10**6, tables_1e6)
    r4_big = counting.compare(ap4, ap_body(4, 10**6), 10**6, tables_1e6)
    r3_big = counting.compare(ap3, ap_body(3, 10**6), 10**6, tables_1e6)
    ok = (
        0.90 <= r4_big.ratio_integral <= 1.10
        and abs(r4_big.ratio_integral - 1) < abs(r4_small.ratio_integral - 1)
        and 0.95 <= r3_big.ratio_integral <= 1.05
    )
    assert report(
        "criterion 4: Hardy-Littlewood comparison",
        ok,
        f"AP4 ratio 1e6={r4_big.ratio_integral:.4f} (1e4={r4_small.ratio_integral:.4f}); "
        f"AP3 1e6={r3_big.ratio_integral:.4f}",
    )


# -- criterion 5 -------------------------------------------------------------


def test_criterion_05_gowers_oracle_agreement(rng):
    ok = True
    f = rng.normal(size=64) + 1j * rng.normal(size=64)
    a = gowers.gowers_norm_cyclic(f, 1, "naive").norm
    b = gowers.gowers_norm_cyclic(f, 1, "fourier").norm
    ok = ok and abs(a - b) <= 1e-9 * max(1.0, a)
    f = rng.normal(size=32) + 1j * rng.normal(size=32)
    a = gowers.gowers_norm_cyclic(f, 2, "naive").norm
    b = gowers.gowers_norm_cyclic(f, 2, "recursive").norm
    ok = ok and abs(a - b) <= 1e-9 * max(1.0, a)
    for s in (1, 2):
        for n in (5, 8, 16):
            f = np.zeros(n)
            f[0] = 1.0
            val = gowers.gowers_norm_cyclic(f, s).norm
            ok = ok and abs(val - n ** (-(s + 2) / 2 ** (s + 1))) <= 1e-12
    assert report("criterion 5: Gowers oracle agreement", ok, "U2 fft, U3 recursive, delta closed form")


# -- criterion 6 -------------------------------------------------------------


def test_criterion_06_inequality_battery(rng):
    ok = True
    for _ in range(200):
        fam = [rng.choice([-1.0, 1.0], size=16) for _ in range(4)]
        lhs, rhs, holds = gowers.gcs_check(fam, tol=1e-9)
        ok = ok and holds
    for _ in range(200):
        fb = {
            frozenset(): np.array(rng.normal()),
            frozenset([0]): rng.normal(size=8) + 1j * rng.normal(size=8),
            frozenset([1]): rng.normal(size=8) + 1j * rng.normal(size=8),
            frozenset([0, 1]): rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8)),
        }
        lhs, rhs, holds = gowers.second_gcs_check(fb, tol=1e-9)
        ok = ok and holds
    for _ in range(200):
        nu = {
            frozenset(): np.array(1.0),
            frozenset([0]): 0.2 + rng.random(5),
            frozenset([1]): 0.2 + rng.random(5),
            frozenset([0, 1]): 0.2 + rng.random((5, 5)),
        }
        f = {b: (rng.random(np.shape(w)) * 2 - 1) * w for b, w in nu.items()}
        lhs, rhs, holds = gowers.weighted_gvn_check(f, nu, tol=1e-9)
        ok = ok and holds
    for _ in range(200):
        n = int(rng.integers(4, 33))
        f = rng.normal(size=n) + 1j * rng.normal(size=n)
        g = rng.normal(size=n) + 1j * rng.normal(size=n)
        s = int(rng.integers(1, 3))
        nf = gowers.gowers_norm_cyclic(f, s).norm
        ng = gowers.gowers_norm_cyclic(g, s).norm
        ok = ok and gowers.gowers_norm_cyclic(f + g, s).norm <= nf + ng + 1e-9
    # phase invariance at polynomial phases of degree <= s
    n = 32
    x = np.arange(n)
    f = rng.normal(size=n) + 1j * rng.normal(size=n)
    for s in (1, 2):
        base = gowers.gowers_norm_cyclic(f, s).norm
        phase = (3 * x**s + 2 * x + 1) % n
        g = f * np.exp(2j * np.pi * phase / n)
        ok = ok and abs(gowers.gowers_norm_cyclic(g, s).norm - base) <= 1e-9
    assert report("criterion 6: inequality battery", ok, "4 x 200 randomized instances + phase invariance")


# -- criterion 7 -------------------------------------------------------------


def test_criterion_07_wtricked_uniformity_decay(tables_4e6):
    w30 = arith.w_trick(w=5)
    ok = True
    worst = ""
    for b in w30.residues:
        vals = []
        for n in (10**4, 10**5):
            f = arith.lambda_bw_array(n, b, w30, tables_4e6, primed=True) - 1.0
            vals.append(gowers.gowers_norm_local(f, 1).norm)
        if not vals[1] < vals[0]:
            ok = False
            worst = f"b={b}: {vals[0]:.4f} -> {vals[1]:.4f}"
    assert report("criterion 7: W-tricked U^2 decay (all residues)", ok, worst or "8/8 decay")


# -- criterion 8 -------------------------------------------------------------


def _gy_twin_ratios():
    tent = gysieve.tent_taper(0.1)
    twin = forms.system([[1], [1]], [0, 2])
    out = {}
    for n in (10**4, 10**5):
        body = geometry.ConvexBody.box(1, 1, n - 2, box_bound=n)
        out[n] = gysieve.gy_estimate_check(
            twin, body, [tent, tent], [1, 1], 1 / 20
        )["ratio"]
    return out


def test_criterion_08a_gy_ratio_at_stated_gamma():
    # Faithful to the stated parameters (gamma = 1/20).  EXPECTED RED:
    # R = 10^0.25 < 2 admits only the divisor d = 1, so the ratio is
    # analytically (gamma ln N)^2 / (2 C_2) ~ 0.25 and cannot reach the
    # bracket at any desk-scale N.  Recorded in notes/decisions.md.
    ratios = _gy_twin_ratios()
    ok = 0.85 <= ratios[10**5] <= 1.15
    report(
        "criterion 8a: GY twin ratio in [0.85, 1.15] at gamma=1/20, N=1e5",
        ok,
        f"ratio={ratios[10**5]:.4f} (forced to (gamma ln N)^2 / 2C_2 when N^gamma < 2)",
    )
    assert ok, (
        f"ratio {ratios[10**5]:.4f} outside [0.85, 1.15]: R = N^(1/20) < 2 "
        "degenerates the divisor sum (spec defect at desk scale; see ledger)"
    )


def test_criterion_08b_gy_ratio_improving():
    ratios = _gy_twin_ratios()
    ok = abs(ratios[10**5] - 1) < abs(ratios[10**4] - 1)
    assert report(
        "criterion 8b: GY ratio improving from N=1e4",
        ok,
        f"{ratios[10**4]:.4f} -> {ratios[10**5]:.4f}",
    )


def test_criterion_08c_normalized_sieve_factor():
    c2 = gysieve.sieve_factor(gysieve.normalized_bump(), 2)
    ok = abs(c2 - 1.0) <= 1e-6
    assert report("criterion 8c: c_{chi,2} = 1 +- 1e-6", ok, f"c2={c2:.9f}")


# -- criterion 9 -------------------------------------------------------------


def test_criterion_09_enveloping_sieve(tables_4e6):
    sieves = {
        n: gysieve.build_enveloping_sieve(n, 1 / 20, 5.0, [1, 7, 11])
        for n in (10**4, 10**5)
    }
    sv = sieves[10**5]
    nu_min = float(sv.nu.min())
    mean = sv.mean()
    c_dom = gysieve.domination_constant(sv, tables_4e6)
    dep = forms.system([[1, 0], [1, 1]])
    devs = {n: gysieve.linear_forms_check(s, dep).deviation for n, s in sieves.items()}
    ok = (
        nu_min >= 0.5
        and abs(mean - 1.0) <= 0.1
        and math.isfinite(c_dom)
        and devs[10**5] <= 0.2
        and devs[10**5] < devs[10**4]
    )
    assert report(
        "criterion 9: enveloping sieve",
        ok,
        f"min nu={nu_min:.3f} E nu={mean:.4f} C_dom={c_dom:.1f} "
        f"LF dev {devs[10**4]:.4f} -> {devs[10**5]:.4f}",
    )


# -- criterion 10 ------------------------------------------------------------


def test_criterion_10_sharp_split(tables_4e6):
    big_r = 40.0
    sharp = gysieve.lambda_sharp_array(10**4, big_r)
    ok = True
    for n in range(1, 10**4 + 1):
        flat = gysieve.lambda_flat_value(n, big_r)
        if abs(sharp[n] + flat - tables_4e6.von_mangoldt[n]) > 1e-9:
            ok = False
            break
    # decay of the U^2 norm: gamma chosen at 0.4 (the criterion leaves gamma
    # free; the paper's asymptotic default gives R < 2 hence Lambda_sharp = 0
    # at these scales -- see notes/decisions.md)
    w30 = arith.w_trick(w=5)
    vals = {
        n: gysieve.sharp_gowers_check(n, 1, w30, 1, 0.4)
        for n in (10**4, 10**5)
    }
    ok = ok and vals[10**5] < vals[10**4]
    assert report(
        "criterion 10: sharp split identity + U^2 decay",
        ok,
        f"identity exact to 1e-9; norm {vals[10**4]:.4f} -> {vals[10**5]:.4f} (gamma=0.4)",
    )


# -- criterion 11 ------------------------------------------------------------


def test_criterion_11_mobius_correlations(tables_1e6):
    ap4 = forms.ap_system(4)
    vals = {}
    for n in (10**4, 10**5):
        body = geometry.ConvexBody.box(2, 1, n)
        vals[n] = abs(counting.mobius_correlation(ap4, body, tables_1e6))
    factors = [
        forms.AffineForm((1, 0)),
        forms.AffineForm((0, 1)),
        forms.AffineForm((1, 1)),
        forms.AffineForm((1, 2)),
    ]
    chowla = abs(counting.chowla_check(factors, 3000, tables_1e6))
    ok = vals[10**4] < 0.05 and vals[10**5] < vals[10**4] and chowla < 0.05
    assert report(
        "criterion 11: Mobius/Liouville correlations",
        ok,
        f"mu 4-AP {vals[10**4]:.5f} -> {vals[10**5]:.5f}; chowla {chowla:.5f}",
    )


# -- criterion 12 ------------------------------------------------------------


def test_criterion_12_nil_checks(rng):
    ok = True
    for _ in range(1000):
        theta = Fraction(int(rng.integers(-999, 1000)), int(rng.integers(1, 97)))
        nilseq.quadratic_phase_orbit(theta, int(rng.integers(-2000, 2000)))
    for _ in range(1000):
        g = float(rng.random())
        x = float(rng.random())
        n, h1, h2 = (int(v) for v in rng.integers(-50, 50, size=3))
        pts = nilseq.abelian_orbit_parallelepiped(g, x, n, h1, h2)
        ok = ok and nilseq.abelian_constraint(pts) < 1e-9
    for _ in range(1000):
        alpha = float(np.sqrt(2) % 1.0) + float(rng.random()) * 1e-3
        x, y = float(rng.random()), float(rng.random())
        n = int(rng.integers(-30, 30))
        h = tuple(int(v) for v in rng.integers(-15, 15, size=3))
        cube = nilseq.skew_orbit_parallelepiped(alpha, x, y, n, h)
        seven = {w: v for w, v in cube.items() if w != (0, 0, 0)}
        chk = nilseq.skew_constraint(seven, true_vertex=cube[(0, 0, 0)])
        ok = ok and chk.residual < 1e-9 and all(r < 1e-9 for r in chk.x_residuals)
    hk_good = hk_fail = 0
    for _ in range(1000):
        g = nilseq.HeisenbergElement.exact(
            Fraction(int(rng.integers(-20, 21)), int(rng.integers(1, 9))),
            Fraction(int(rng.integers(-20, 21)), int(rng.integers(1, 9))),
            Fraction(int(rng.integers(-20, 21)), int(rng.integers(1, 9))),
        )
        x0 = nilseq.HeisenbergElement.exact(
            Fraction(int(rng.integers(-20, 21)), int(rng.integers(1, 9))),
            Fraction(int(rng.integers(-20, 21)), int(rng.integers(1, 9))),
            Fraction(int(rng.integers(-20, 21)), int(rng.integers(1, 9))),
        )
        cube = nilseq.orbit_parallelepiped(
            g, x0, int(rng.integers(-6, 7)), tuple(int(v) for v in rng.integers(-6, 7, size=3))
        )
        if nilseq.hk_factorize_heisenberg(cube).success:
            hk_good += 1
        v = cube[(0, 0, 0)]
        cube[(0, 0, 0)] = nilseq.HeisenbergElement(v.x, v.y, v.z + Fraction(1, 10))
        if not nilseq.hk_factorize_heisenberg(cube).success:
            hk_fail += 1
    ok = ok and hk_good == 1000 and hk_fail >= 990
    assert report(
        "criterion 12: nilmanifold checks",
        ok,
        f"quadratic phase 1000/1000 exact; HK success {hk_good}/1000, perturbed fail {hk_fail}/1000",
    )


# -- criterion 13 ------------------------------------------------------------


def test_criterion_13_complexity_and_normal_form_goldens():
    ok = True
    for k in range(2, 7):
        ok = ok and forms.complexity(forms.ap_system(k)).overall == k - 2
    ok = ok and forms.complexity(forms.balog_system(3)).overall == 1
    ok = ok and forms.complexity(forms.cube_system(4)).overall == 2
    ok = ok and forms.complexity(forms.system([[1], [1]], [0, 2])).overall == math.inf
    fixtures = [
        (forms.ap_system(3), 1),
        (forms.ap_system(4), 2),
        (forms.ap_system(5), 3),
        (forms.ap_system(6), 4),
        (forms.balog_system(2), 1),
        (forms.balog_system(3), 1),
        (forms.cube_system(3), 1),
        (forms.cube_system(4), 2),
        (forms.vinogradov_system(997), 1),
    ]
    for sys, s in fixtures:
        ext, _ = forms.normal_form_extension(sys, s)
        ok = ok and forms.is_normal_form(ext, s) and forms.is_extension(sys, ext)
    assert report(
        "criterion 13: complexity/normal-form goldens",
        ok,
        "AP-k = k-2 (k<=6), Balog=1, cube(4)=2, twin=inf; all extensions verified",
    )
