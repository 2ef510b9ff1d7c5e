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
    affine_span_member,
    ap_system,
    balog_system,
    complexity,
    cube_system,
    i_complexity,
    identity_system,
    is_normal_form,
    normal_form_extension,
    parameterize_matrix_system,
    size_at_scale,
    system,
    vinogradov_system,
)
from .geometry import ConvexBody, archimedean_factor, boundary_shell_count
from .localfactors import (
    ExceptionalPrimeSet,
    LocalProfile,
    SingularSeries,
    ap_k_local_factor,
    alpha_p,
    exceptional_primes,
    local_factor,
    local_factor_q,
    local_von_mangoldt,
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
    dual_norm_lower_bound,
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
    truncated_divisor_sum,
)
from .nilseq import (
    HeisenbergElement,
    NilPoint,
    SkewShiftState,
    abelian_constraint,
    hk_factorize_heisenberg,
    mobius_nil_correlation,
    quadratic_phase_orbit,
    reduce_to_fundamental_domain,
    skew_constraint,
)

__version__ = "0.1.0"
