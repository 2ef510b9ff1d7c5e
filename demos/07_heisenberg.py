#!/usr/bin/env python3
"""Explicit nilmanifold computations on the Heisenberg group.

The orbit of g = [[1,-t,-t],[0,1,2],[0,0,1]] realises the quadratic phase
e(n^2 t) after reduction to the fundamental domain; parallelepipeds satisfy
algebraic constraints (one vertex is determined by the others), checked here
exactly in rational arithmetic via the Host-Kra face-group factorization.
"""

from fractions import Fraction

import numpy as np

from affprimes import arith, nilseq

H = nilseq.HeisenbergElement

print("=== the e(n^2 theta) realization ===")
theta = Fraction(3, 7)
print(f"theta = {theta}: reduced orbit points ({{-n theta}}, 0, {{n^2 theta}}):")
for n in range(5):
    pt = nilseq.quadratic_phase_orbit(theta, n)
    print(f"  n={n}: ({pt.x}, {pt.y}, {pt.z})")

print()
print("=== fundamental-domain reduction ===")
g = H.exact(Fraction(5, 3), Fraction(-7, 4), Fraction(22, 7))
pt, gamma = nilseq.reduce_to_fundamental_domain(g)
print(f"  g = ({g.x}, {g.y}, {g.z})")
print(f"  reduced = ({pt.x}, {pt.y}, {pt.z}),  gamma = ({gamma.x}, {gamma.y}, {gamma.z})")
check = g * gamma
print(f"  g * gamma = ({check.x}, {check.y}, {check.z})   [exact]")

print()
print("=== parallelepiped constraints ===")
pts = nilseq.abelian_orbit_parallelepiped(0.1357, 0.42, 3, 7, 11)
print(f"  abelian 2-cube residual: {nilseq.abelian_constraint(pts):.2e}")
cube = nilseq.skew_orbit_parallelepiped(Fraction(5, 9), Fraction(1, 4), Fraction(1, 6), 2, (3, 5, 8))
seven = {w: v for w, v in cube.items() if w != (0, 0, 0)}
chk = nilseq.skew_constraint(seven, true_vertex=cube[(0, 0, 0)])
print(f"  skew-shift 3-cube: prediction residual = {chk.residual}, x-checks = {chk.x_residuals}")

print()
print("=== Host-Kra factorization of an orbit cube ===")
g = H.exact(Fraction(1, 3), Fraction(2, 5), Fraction(1, 7))
x0 = H.exact(Fraction(1, 2), Fraction(1, 3), Fraction(1, 5))
cube = nilseq.orbit_parallelepiped(g, x0, 2, (1, 3, 4))
res = nilseq.hk_factorize_heisenberg(cube)
print(f"  success: {res.success}")
for m, tau in res.taus:
    kind = {3: "full", 2: "face", 1: "edge (central)", 0: "vertex (trivial)"}[sum(m)]
    print(f"  face max={m} [{kind:16s}] tau = ({tau.x}, {tau.y}, {tau.z})")
v = cube[(0, 0, 0)]
cube[(0, 0, 0)] = H(v.x, v.y, v.z + Fraction(1, 10))
print(f"  after z-perturbation of the 0-vertex: success = "
      f"{nilseq.hk_factorize_heisenberg(cube).success}")

print()
print("=== Mobius against nilsequences ===")
tables = arith.build_tables(10**5)
th = (np.sqrt(5) - 1) / 2
gf = H(-th, 2.0, -th)
func = nilseq.smooth_cell_function()
v = nilseq.mobius_nil_correlation(10**5, gf, H.identity(), func, tables)
print(f"  |E mu(n) F(g^n x)| on the Heisenberg orbit, N=1e5: {abs(v):.5f}")
v1 = nilseq.mobius_phase_correlation(10**5, th, tables)
print(f"  |E mu(n) e(alpha n)|, golden alpha, N=1e5: {abs(v1):.5f}")
