#!/usr/bin/env python3
"""Complexity and normal forms of affine-linear systems.

Walks through the standard examples: progressions, the midpoint (Balog)
system, cube systems, and the binary systems of infinite complexity; then
builds an s-normal-form extension for AP4 and verifies its properties.
"""

from affprimes import forms

print("=== complexity of standard systems ===")
for name, sys in [
    ("independent pair (n1, n2)", forms.identity_system(2)),
    ("AP3  (n1, n1+n2, n1+2n2)", forms.ap_system(3)),
    ("AP4", forms.ap_system(4)),
    ("AP6", forms.ap_system(6)),
    ("Balog d=3  (n_i+n_j+1)", forms.balog_system(3)),
    ("cube d=4  (n1 + sum_A n_j)", forms.cube_system(4)),
    ("three primes summing to 1000", forms.vinogradov_system(1000)),
    ("twin  (n, n+2)", forms.system([[1], [1]], [0, 2])),
]:
    res = forms.complexity(sys)
    print(f"  {name:36s} t={sys.t} d={sys.d}  complexity = {res.overall}")

print()
print("=== witness covers for the Balog system ===")
bal = forms.balog_system(3)
res = forms.complexity(bal)
for i in (0, 1):
    classes = res.witnesses[i]
    pretty = " | ".join("{" + ", ".join(str(bal.forms[j]) for j in cls) + "}" for cls in classes)
    print(f"  form {bal.forms[i]}: covered by {pretty}")

print()
print("=== normal-form extension of AP4 (s = 2) ===")
ap4 = forms.ap_system(4)
print("  in 2-normal form already?", forms.is_normal_form(ap4, 2))
ext, fvecs = forms.normal_form_extension(ap4, 2)
print("  extension:", ext)
print("  appended directions:", fvecs)
ok, witnesses = forms.is_normal_form(ext, 2, with_witness=True)
print("  is 2-normal form:", ok, " witness coordinate sets:", witnesses)
print("  same affine lattice as AP4:", forms.is_extension(ap4, ext))

print()
print("=== parameterizing a matrix system ===")
sys3, base = forms.parameterize_matrix_system([[1, -2, 1]], [0])
print("  {x : x1 - 2x2 + x3 = 0} =", sys3, " base point", base)
print("  complexity:", forms.complexity(sys3).overall)
