#!/usr/bin/env python3
"""Gowers uniformity norms: oracle agreement, structured vs random inputs,
and the uniformity of the W-tricked primes.
"""

import numpy as np

from affprimes import arith, gowers

rng = np.random.default_rng(1)

print("=== naive and recursive routes agree ===")
f = rng.normal(size=32) + 1j * rng.normal(size=32)
print("  U^2 naive    :", gowers.gowers_norm_cyclic(f, 1, "naive").norm)
print("  U^2 recursive:", gowers.gowers_norm_cyclic(f, 1, "recursive").norm)
print("  U^3 naive    :", gowers.gowers_norm_cyclic(f, 2, "naive").norm)
print("  U^3 recursive:", gowers.gowers_norm_cyclic(f, 2, "recursive").norm)

print()
print("=== structure is invisible to low norms, noise is small in all ===")
n = 512
x = np.arange(n)
quad = np.exp(2j * np.pi * 7 * x * x / n)       # quadratic phase
noise = rng.choice([-1.0, 1.0], size=n)
for name, g in [("quadratic phase", quad), ("random signs", noise)]:
    u2 = gowers.gowers_norm_cyclic(g, 1).norm
    u3 = gowers.gowers_norm_cyclic(g, 2).norm
    print(f"  {name:16s} ||.||_U2 = {u2:.4f}   ||.||_U3 = {u3:.4f}")
print("  (a quadratic phase is U^2-uniform but has full U^3 norm)")

print()
print("=== delta function: closed form N^(-(s+2)/2^(s+1)) ===")
for s, n in [(1, 5), (2, 8)]:
    f = np.zeros(n)
    f[0] = 1
    print(f"  s={s} N={n}: {gowers.gowers_norm_cyclic(f, s).norm:.6f}"
          f"  vs  {n ** (-(s + 2) / 2 ** (s + 1)):.6f}")

print()
print("=== W-tricked von Mangoldt is increasingly U^2-uniform ===")
w30 = arith.w_trick(w=5)
for n in (10**3, 10**4, 10**5):
    f = arith.lambda_bw_array(n, 1, w30, primed=True) - 1.0
    print(f"  || Lambda'_(1,30) - 1 ||_U2[{n}] = {gowers.gowers_norm_local(f, 1).norm:.4f}")
print("  (compare the raw primes, no W-trick: mod-2 and mod-3 biases persist)")
raw = arith.build_tables(10**5).von_mangoldt_prime[1:] - 1.0
print(f"  || Lambda' - 1 ||_U2[1e5] = {gowers.gowers_norm_local(raw, 1).norm:.4f}")
