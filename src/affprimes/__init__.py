"""Prime points on affine lattices: verification toolkit.

Local factors and singular series for systems of affine-linear forms,
empirical prime-pattern counts over convex bodies, Gowers uniformity norms,
Goldston-Yildirim truncated divisor sums with an enveloping sieve, and
explicit Heisenberg-nilmanifold constraint checks.

The public names load lazily (PEP 562): `from affprimes import X` imports
only the module that defines X.
"""

import importlib

# public name -> the module that defines it
_EXPORTS = {
    "ArithTables": "arith", "WTrickParams": "arith", "build_tables": "arith", "w_trick": "arith",
    "AffineForm": "forms", "ComplexityResult": "forms", "FormSystem": "forms", "ap_system": "forms",
    "balog_system": "forms", "complexity": "forms", "cube_system": "forms", "i_complexity": "forms",
    "identity_system": "forms", "is_normal_form": "forms", "normal_form_extension": "forms",
    "parameterize_matrix_system": "forms", "system": "forms", "vinogradov_system": "forms",
    "ConvexBody": "geometry", "archimedean_factor": "geometry",
    "ExceptionalPrimeSet": "localfactors", "LocalProfile": "localfactors", "SingularSeries": "localfactors",
    "ap_k_local_factor": "localfactors", "alpha_p": "localfactors", "exceptional_primes": "localfactors",
    "local_factor": "localfactors", "singular_series": "localfactors",
    "CorrelationReport": "counting", "chowla_check": "counting", "compare": "counting",
    "mobius_correlation": "counting", "predict": "counting", "prime_point_count": "counting",
    "weighted_count": "counting",
    "GowersResult": "gowers", "box_norm": "gowers", "gcs_check": "gowers", "gowers_norm_cyclic": "gowers",
    "gowers_norm_local": "gowers", "weighted_box_norm": "gowers",
    "EnvelopingSieve": "gysieve", "SmoothCutoff": "gysieve", "build_enveloping_sieve": "gysieve",
    "correlation_check": "gysieve", "gy_estimate_check": "gysieve", "linear_forms_check": "gysieve",
    "normalized_bump": "gysieve", "sharp_gowers_check": "gysieve", "sieve_factor": "gysieve",
    "split_sharp_flat": "gysieve", "tent_taper": "gysieve",
    "HeisenbergElement": "nilseq", "NilPoint": "nilseq", "abelian_constraint": "nilseq",
    "hk_factorize_heisenberg": "nilseq", "mobius_nil_correlation": "nilseq", "quadratic_phase_orbit": "nilseq",
    "reduce_to_fundamental_domain": "nilseq", "skew_constraint": "nilseq",
}

__all__ = list(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)


def __dir__():
    return sorted({*globals(), *_EXPORTS})
