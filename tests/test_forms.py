from fractions import Fraction
from math import inf

import numpy as np
import pytest

from affprimes import forms, linalg


def twin():
    return forms.system([[1], [1]], [0, 2])


def test_size_at_scale():
    # direct evaluation of the defining sum; the four AP4 rows contribute
    # 1 + 2 + 3 + 4 = 10 with zero constants
    assert forms.size_at_scale(forms.ap_system(4), 7) == 10
    pair = forms.system([[1], [-1]], [0, 100])
    assert forms.size_at_scale(pair, 100) == 3
    vin = forms.vinogradov_system(100)
    assert forms.size_at_scale(vin, 100) == 5
    with pytest.raises(ValueError):
        forms.size_at_scale(pair, 0)


def test_affine_span_member():
    n1 = forms.AffineForm((1, 0))
    n2 = forms.AffineForm((0, 1))
    n12 = forms.AffineForm((1, 1))
    cand = forms.AffineForm((1, 2))
    assert forms.affine_span_member(cand, [n1, n12])
    assert not forms.affine_span_member(n1, [n2])
    # affine span includes constant shifts
    shifted = forms.AffineForm((1, 1), 1)
    assert forms.affine_span_member(shifted, [n12])
    assert not forms.affine_span_member(cand, [])


def test_i_complexity_examples():
    ap4 = forms.ap_system(4)
    for i in range(4):
        assert forms.i_complexity(ap4, i) == 2
    ident = forms.identity_system(4)
    for i in range(4):
        assert forms.i_complexity(ident, i) == 0
    assert forms.i_complexity(twin(), 0) == inf
    with pytest.raises(IndexError):
        forms.i_complexity(ap4, 4)


def test_complexity_fixtures():
    # progressions: complexity k - 2
    for k in range(2, 7):
        assert forms.complexity(forms.ap_system(k)).overall == k - 2
    assert forms.complexity(forms.balog_system(3)).overall == 1
    assert forms.complexity(forms.cube_system(3)).overall == 1
    assert forms.complexity(forms.cube_system(4)).overall == 2
    assert forms.complexity(forms.vinogradov_system(1000)).overall == 1
    assert forms.complexity(twin()).overall == inf
    # three primes summing to N with a shifted-difference constraint
    ex = forms.system([[1, 0], [0, 1], [1, 1], [1, 2]], [0, 0, -1, -2])
    assert forms.complexity(ex).overall == 2


def test_complexity_witnesses_are_valid_covers():
    sys = forms.balog_system(3)
    res = forms.complexity(sys)
    for i, classes in res.witnesses.items():
        covered = sorted(j for cls in classes for j in cls)
        assert covered == [j for j in range(sys.t) if j != i]
        for cls in classes:
            assert not forms.affine_span_member(
                sys.forms[i], [sys.forms[j] for j in cls]
            )
        assert len(classes) == res.per_index[i] + 1


def _random_unimodular(rng, d):
    m = np.eye(d, dtype=int)
    for _ in range(6):
        i, j = rng.integers(0, d, size=2)
        if i == j:
            continue
        m[i] += int(rng.integers(-2, 3)) * m[j]
    if rng.integers(0, 2):
        m = m[::-1]
    return m.tolist()


def unimodular_reparameterize(sys, umat):
    """Apply n -> U n for a unimodular integer matrix U."""
    d = sys.d
    new_forms = []
    for f in sys.forms:
        row = [sum(f.linear_coeffs[i] * umat[i][j] for i in range(d)) for j in range(d)]
        new_forms.append(forms.AffineForm(tuple(row), f.constant))
    return forms.FormSystem(tuple(new_forms))


def test_complexity_invariances(rng):
    for _ in range(25):
        d = int(rng.integers(2, 4))
        t = int(rng.integers(2, 6))
        rows = rng.integers(-3, 4, size=(t, d)).tolist()
        rows = [r if any(r) else [1] + r[1:] for r in rows]
        consts = rng.integers(-5, 6, size=t).tolist()
        sys = forms.system(rows, consts)
        base = forms.complexity(sys).overall
        # permutation invariance
        perm = rng.permutation(t)
        psys = forms.FormSystem(tuple(sys.forms[i] for i in perm))
        assert forms.complexity(psys).overall == base
        # unimodular reparameterization invariance
        u = _random_unimodular(rng, d)
        usys = unimodular_reparameterize(sys, u)
        assert forms.complexity(usys).overall == base
        # finite iff no two forms affinely related
        pairs_related = any(
            sys.forms[i].parallel_to(sys.forms[j])
            for i in range(t)
            for j in range(i + 1, t)
        )
        assert (base == inf) == pairs_related
        if base != inf:
            assert base <= t - linalg.rank(sys.coefficient_matrix())


def test_is_normal_form_examples():
    ap4 = forms.ap_system(4)
    for s in range(5):
        assert not forms.is_normal_form(ap4, s)
    # the 4-variable system that also counts length-4 progressions
    prime4 = forms.system(
        [[0, 1, 2, 3], [-1, 0, 1, 2], [-2, -1, 0, 1], [-3, -2, -1, 0]]
    )
    ok, wit = forms.is_normal_form(prime4, 2, with_witness=True)
    assert ok and all(len(j) <= 3 for j in wit)
    ident = forms.identity_system(3)
    ok, wit = forms.is_normal_form(ident, 0, with_witness=True)
    assert ok and wit == [[0], [1], [2]]
    # the explicit 1-normal reparameterization of the d=2 midpoint system
    balog_prime = forms.system(
        [[2, 0, 1, -1], [1, 1, 0, 0], [0, 2, -1, 1]], [1, 1, 1]
    )
    assert forms.is_normal_form(balog_prime, 1)


def test_subsystem_of_normal_form_is_normal():
    prime4 = forms.system(
        [[0, 1, 2, 3], [-1, 0, 1, 2], [-2, -1, 0, 1], [-3, -2, -1, 0]]
    )
    for keep in ([0, 1], [0, 2, 3], [1, 3]):
        assert forms.is_normal_form(prime4.subsystem(keep), 2)


@pytest.mark.parametrize(
    "sys,s",
    [
        (forms.ap_system(3), 1),
        (forms.ap_system(4), 2),
        (forms.ap_system(5), 3),
        (forms.ap_system(6), 4),
        (forms.balog_system(2), 1),
        (forms.balog_system(3), 1),
        (forms.cube_system(3), 1),
        (forms.cube_system(4), 2),
        (forms.vinogradov_system(997), 1),
    ],
)
def test_normal_form_extension(sys, s):
    ext, fvecs = forms.normal_form_extension(sys, s)
    assert forms.is_normal_form(ext, s)
    assert forms.is_extension(sys, ext)
    assert ext.d <= sys.d + sys.t * (s + 1)
    # size stays bounded: integer coefficients, comparable scale
    assert forms.size_at_scale(ext, 1000) <= 50 * forms.size_at_scale(sys, 1000)


def test_normal_form_extension_identity_when_already_normal():
    prime4 = forms.system(
        [[0, 1, 2, 3], [-1, 0, 1, 2], [-2, -1, 0, 1], [-3, -2, -1, 0]]
    )
    ext, fvecs = forms.normal_form_extension(prime4, 2)
    assert ext is prime4 or ext == prime4
    assert fvecs == []


def test_normal_form_extension_infinite_complexity_rejected():
    with pytest.raises(ValueError, match="no normal form"):
        forms.normal_form_extension(twin(), 3)


def test_parameterize_ap3():
    # x1 - 2x2 + x3 = 0: three-term progressions
    sys, x0 = forms.parameterize_matrix_system([[1, -2, 1]], [0])
    assert sys.t == 3 and sys.d == 2
    assert forms.complexity(sys).overall == 1
    # lattice equality with the standard progression system, via Smith form:
    # both column lattices are all of {x: x1 - 2x2 + x3 = 0}
    ap3_cols = [[1, 0], [1, 1], [1, 2]]
    assert linalg.same_column_lattice(sys.coefficient_matrix(), ap3_cols)
    # sampling check
    for n in [(0, 0), (1, 0), (3, -2), (-5, 7)]:
        x = sys.evaluate(n)
        assert x[0] - 2 * x[1] + x[2] == 0


def test_parameterize_vinogradov():
    n = 101
    sys, x0 = forms.parameterize_matrix_system([[1, 1, 1]], [n])
    assert sys.t == 3 and sys.d == 2
    for pt in [(0, 0), (5, -3), (40, 61)]:
        assert sum(sys.evaluate(pt)) == n


def test_parameterize_errors():
    with pytest.raises(ValueError, match="not full rank"):
        forms.parameterize_matrix_system([[1, 1, 1], [2, 2, 2]], [0, 0])
    with pytest.raises(ValueError, match="inconsistent"):
        forms.parameterize_matrix_system([[2, 2, 2]], [1])
    with pytest.raises(ValueError, match="degenerate"):
        forms.parameterize_matrix_system([[1, 1, 0], [0, 0, 1]], [0, 0])


def test_form_system_json_roundtrip():
    sys = forms.vinogradov_system(50)
    obj = forms.form_system_to_json(sys)
    back = forms.form_system_from_json(obj)
    assert back == sys
    # scale-dependent constants
    obj2 = {
        "d": 2,
        "t": 3,
        "forms": [
            {"coeffs": [1, 0], "const": 0},
            {"coeffs": [0, 1], "const": 0},
            {"coeffs": [-1, -1], "const": {"times_N": 1}},
        ],
    }
    sys2 = forms.form_system_from_json(obj2, n_scale=50)
    assert sys2 == sys
    with pytest.raises(ValueError):
        forms.form_system_from_json(obj2)


def test_invariants_rejected():
    with pytest.raises(ValueError):
        forms.AffineForm((0, 0), 5)
    with pytest.raises(ValueError, match="rational multiples"):
        forms.FormSystem(
            (forms.AffineForm((1, 0)), forms.AffineForm((2, 0))),
            check_pairwise_independent=True,
        )


def test_parameterize_empty_matrix_identity():
    sys0, x0 = forms.parameterize_matrix_system([], [], n_cols=3)
    assert sys0 == forms.identity_system(3)
    assert x0 == [0, 0, 0]
    with pytest.raises(ValueError):
        forms.parameterize_matrix_system([], [])


def test_ip_cube_complexity():
    # pinned-cube systems have complexity exactly d - 1
    for d in (2, 3):
        assert forms.complexity(forms.ip_cube_system(d)).overall == d - 1
