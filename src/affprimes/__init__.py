"""Prime points on affine lattices: verification toolkit.

Local factors and singular series for systems of affine-linear forms,
empirical prime-pattern counts over convex bodies, Gowers uniformity norms,
Goldston-Yildirim truncated divisor sums with an enveloping sieve, and
explicit Heisenberg-nilmanifold constraint checks.
"""

from .arith import ArithTables, WTrickParams, build_tables, lambda_bw, w_trick
from .forms import (
    AffineForm,
    ComplexityResult,
    FormSystem,
    ap_system,
    balog_system,
    complexity,
    cube_system,
    i_complexity,
    identity_system,
    is_normal_form,
    normal_form_extension,
    parameterize_matrix_system,
    system,
    vinogradov_system,
)
from .geometry import ConvexBody, archimedean_factor
from .localfactors import (
    ExceptionalPrimeSet,
    LocalProfile,
    SingularSeries,
    ap_k_local_factor,
    alpha_p,
    exceptional_primes,
    local_factor,
    singular_series,
)
from .counting import (
    CorrelationReport,
    chowla_check,
    compare,
    mobius_correlation,
    predict,
    prime_point_count,
    weighted_count,
)
from .gowers import (
    GowersResult,
    box_norm,
    gcs_check,
    gowers_norm_cyclic,
    gowers_norm_local,
    weighted_box_norm,
)
from .gysieve import (
    EnvelopingSieve,
    SmoothCutoff,
    build_enveloping_sieve,
    correlation_check,
    gy_estimate_check,
    linear_forms_check,
    normalized_bump,
    sharp_gowers_check,
    sieve_factor,
    split_sharp_flat,
    tent_taper,
)
from .nilseq import (
    HeisenbergElement,
    NilPoint,
    abelian_constraint,
    hk_factorize_heisenberg,
    mobius_nil_correlation,
    quadratic_phase_orbit,
    reduce_to_fundamental_domain,
    skew_constraint,
)

__version__ = "0.1.0"
