#!/usr/bin/env python3
"""Truncated divisor sums and the enveloping sieve.

Shows the sieve factors of the cutoff families, the correlation estimate for
the twin-type system at a range of truncation exponents gamma (including the
degenerate regime R = N^gamma < 2 where the sums collapse), and the
pseudorandomness diagnostics of the enveloping sieve nu.
"""

from affprimes import arith, forms, geometry, gysieve

print("=== cutoff families and sieve factors ===")
bump = gysieve.normalized_bump()
tent = gysieve.tent_taper(0.1)
sharp, _ = gysieve.split_sharp_flat()
for name, chi in [("normalized bump", bump), ("tent (edge-smoothed)", tent), ("sharp identity", sharp)]:
    c1 = gysieve.sieve_factor(chi, 1)
    c2 = gysieve.sieve_factor(chi, 2)
    print(f"  {name:22s} c_(chi,1) = {c1:+.6f}   c_(chi,2) = {c2:.6f}")
print("  (an even smooth cutoff always has c_(chi,1) = 0; a = 1 experiments")
print("   use the tent family, whose right-derivative at 0 is -1)")

print()
print("=== Goldston-Yildirim check, twin system, a = (1,1) ===")
twin = forms.system([[1], [1]], [0, 2])
print(f"{'gamma':>6} {'R(1e5)':>8} {'ratio 1e4':>10} {'ratio 1e5':>10}")
for gamma in (1 / 20, 0.25, 0.35, 0.45):
    row = []
    for n in (10**4, 10**5):
        body = geometry.ConvexBody.box(1, 1, n - 2, box_bound=n)
        out = gysieve.gy_estimate_check(twin, body, [tent, tent], [1, 1], gamma)
        row.append(out["ratio"])
    print(f"{gamma:>6.3f} {float(10**5) ** gamma:>8.2f} {row[0]:>10.4f} {row[1]:>10.4f}")
print("  At gamma = 1/20 the truncation R < 2 admits only d = 1: the sum is")
print("  (log R)^2 N exactly and the ratio is (gamma ln N)^2 / 2C_2 ~ 0.25.")

print()
print("=== enveloping sieve nu at N = 1e5 ===")
sv = gysieve.build_enveloping_sieve(10**5, 1 / 20, 5.0, [1, 7, 11])
print(f"  N' = {sv.n_prime} (least prime >= 20 N), R = {sv.big_r:.3f}")
print(f"  min nu = {sv.nu.min():.4f}  (>= 1/2 by construction)")
print(f"  E nu   = {sv.mean():.4f}  (measure condition)")
print(f"  domination constant on [N^0.6, N]: {gysieve.domination_constant(sv):.2f}")
dep = forms.system([[1, 0], [1, 1]])
lf_res = gysieve.linear_forms_check(sv, dep)
print(f"  linear-forms deviation for (n1, n1+n2): {lf_res.deviation:.5f} [{lf_res.method}]")
lhs, rhs, holds = gysieve.correlation_check(sv, 3, [1, 5, 11])
print(f"  correlation condition m=3: lhs = {lhs:.4f} <= rhs = {rhs:.4f}: {holds}")
mom = gysieve.tau_moments(sv, qs=(1, 2, 3), n_limit=10**4)
print(f"  tau moments: {', '.join(f'q={q}: {v:.3f}' for q, v in mom.items())}")

print()
print("=== the sharp/flat split of Lambda ===")
big_r = 40.0
sharp_arr = gysieve.lambda_sharp_array(50, big_r)
lam = arith.build_tables(50).von_mangoldt
for n in (2, 12, 30, 37):
    flat = gysieve.lambda_flat_value(n, big_r)
    print(f"  n={n:>3}: sharp = {sharp_arr[n]:+.4f}  flat = {flat:+.4f}  "
          f"sum = {sharp_arr[n] + flat:.4f}  Lambda = {lam[n]:.4f}")
w30 = arith.w_trick(w=5)
for n in (10**4, 10**5):
    v = gysieve.sharp_gowers_check(n, 1, w30, 1, 0.4)
    print(f"  || (phi(W)/W) Lambda^sharp(Wn+1) - 1 ||_U2[{n}] = {v:.4f}   (gamma = 0.4)")
