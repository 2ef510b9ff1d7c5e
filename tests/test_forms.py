import itertools
import math
from fractions import Fraction
from math import inf

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from affprimes import forms, linalg


def twin():
    return forms.system([[1], [1]], [0, 2])


def size_at_scale(sys, n_scale):
    """sum_ij |psi_i.(e_j)| + sum_i |psi_i(0)/N|: the size of a system at scale N."""
    return sum(sum(map(abs, f.linear_coeffs)) + Fraction(abs(f.constant), n_scale) for f in sys.forms)


def test_size_at_scale():
    # direct evaluation of the defining sum; the four AP4 rows contribute
    # 1 + 2 + 3 + 4 = 10 with zero constants
    assert size_at_scale(forms.ap_system(4), 7) == 10
    pair = forms.system([[1], [-1]], [0, 100])
    assert size_at_scale(pair, 100) == 3
    vin = forms.vinogradov_system(100)
    assert size_at_scale(vin, 100) == 5


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
    rows = sys.coefficient_matrix()
    for i, classes in res.witnesses.items():
        covered = sorted(j for cls in classes for j in cls)
        assert covered == [j for j in range(sys.t) if j != i]
        for cls in classes:
            sub = [rows[j] for j in cls]
            assert linalg.rank(sub + [rows[i]]) == linalg.rank(sub) + 1
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
        assert forms.is_normal_form(forms.FormSystem(tuple(prime4.forms[i] for i in keep)), 2)


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
    assert size_at_scale(ext, 1000) <= 50 * size_at_scale(sys, 1000)


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
        x = [f(n) for f in sys.forms]
        assert x[0] - 2 * x[1] + x[2] == 0


def test_parameterize_vinogradov():
    n = 101
    sys, x0 = forms.parameterize_matrix_system([[1, 1, 1]], [n])
    assert sys.t == 3 and sys.d == 2
    for pt in [(0, 0), (5, -3), (40, 61)]:
        assert sum(f(pt) for f in sys.forms) == n


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


@pytest.mark.parametrize("coeffs, const", [
    ((1, 0.5), 0), ((1, 0), 2.7), ((1, Fraction(1, 2)), 0), ((1, 0), inf), ((1, math.nan), 0), ((1, "2"), 0),
])
def test_non_integral_coefficient_or_constant_rejected(coeffs, const):
    # int() used to truncate 0.5 to 0 and 2.7 to 2
    with pytest.raises(ValueError):
        forms.AffineForm(coeffs, const)


def test_integral_values_read_as_ints():
    f = forms.AffineForm((1.0, np.int64(-2), Fraction(3)), 4.0)
    assert f == forms.AffineForm((1, -2, 3), 4)
    assert all(type(c) is int for c in (*f.linear_coeffs, f.constant))
    assert forms._parse_const(2.0, None) == 2 and forms._parse_const({"times_N": 0.5}, 10) == 5
    with pytest.raises(ValueError):
        forms._parse_const(2.7, None)


def _minors_vanish(a, b):
    """Every 2x2 minor of the rows a, b is 0: the loop parallel_to and the
    pairwise check ran before they called linalg.rank, kept as their oracle."""
    return all(a[k] * b[l] == a[l] * b[k] for k in range(len(a)) for l in range(len(a)))


@st.composite
def _form_lists(draw):
    """2-4 forms on Z^1..Z^3; a drawn form may be an integer multiple of another's
    primitive homogeneous part, with the matching constant or another one."""
    d = draw(st.integers(1, 3))
    out = []
    for _ in range(draw(st.integers(2, 4))):
        if out and draw(st.booleans()):
            base = draw(st.sampled_from(out))
            g = math.gcd(*base.linear_coeffs)
            k = draw(st.sampled_from([-3, -2, -1, 1, 2, 3]))
            same = base.constant % g == 0 and draw(st.booleans())
            const = k * base.constant // g if same else draw(st.integers(-6, 6))
            out.append(forms.AffineForm(tuple(k * x // g for x in base.linear_coeffs), const))
        else:
            coeffs = draw(st.lists(st.integers(-6, 6), min_size=d, max_size=d).filter(any))
            out.append(forms.AffineForm(tuple(coeffs), draw(st.integers(-6, 6))))
    return out


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_form_lists())
def test_rank_checks_match_minor_loops(fs):
    for f, g in itertools.product(fs, repeat=2):
        assert f.parallel_to(g) == _minors_vanish(f.linear_coeffs, g.linear_coeffs)
    rows = [f.linear_coeffs + (f.constant,) for f in fs]
    pairs = itertools.combinations(range(len(fs)), 2)
    bad = next(((i, j) for i, j in pairs if _minors_vanish(rows[i], rows[j])), None)
    if bad is None:
        forms.FormSystem(tuple(fs), check_pairwise_independent=True)
    else:
        with pytest.raises(ValueError, match=f"forms {bad[0]} and {bad[1]} are rational multiples"):
            forms.FormSystem(tuple(fs), check_pairwise_independent=True)


@st.composite
def _finite_complexity_systems(draw):
    """3-5 forms on Z^2 or Z^3 with coefficients and constants in -3..3, no two
    homogeneous parts parallel, so the complexity is finite."""
    d = draw(st.integers(2, 3))
    rows = []
    for _ in range(draw(st.integers(3, 5))):
        row = st.lists(st.integers(-3, 3), min_size=d, max_size=d)
        rows.append(draw(row.filter(lambda r: all(linalg.rank([r, q]) == 2 for q in rows) and any(r))))
    return forms.system(rows, draw(st.lists(st.integers(-3, 3), min_size=len(rows), max_size=len(rows))))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_finite_complexity_systems())
@example(forms.system([[2, 3, 0], [3, 1, 2], [-1, 1, -2]]))
def test_normal_form_extension_is_an_extension(sys):
    # Psi' restricts to Psi and Psi'(Z^d') == Psi(Z^d), at s the system's
    # complexity; the explicit system has complexity 0 and an extension of d' = 6
    s = forms.complexity(sys).overall
    ext, _ = forms.normal_form_extension(sys, s)
    assert forms.is_extension(sys, ext)


def test_parameterize_empty_matrix_identity():
    sys0, x0 = forms.parameterize_matrix_system([], [], n_cols=3)
    assert sys0 == forms.identity_system(3)
    assert x0 == [0, 0, 0]
    with pytest.raises(ValueError):
        forms.parameterize_matrix_system([], [])


def ip_cube_system(d):
    """(1 + sum_{j in A} n_j)_{A nonempty}: pinned cubes, values prime-minus-one."""
    rows = [[mask >> j & 1 for j in range(d)] for mask in range(1, 2**d)]
    return forms.system(rows, [1] * len(rows))


def test_ip_cube_complexity():
    # pinned-cube systems have complexity exactly d - 1
    for d in (2, 3):
        assert forms.complexity(ip_cube_system(d)).overall == d - 1


def _in_span(vec, rows):
    """vec in the Q-span of rows, by solving rows^T c = vec with Gauss-Jordan
    (independent of the Bareiss elimination behind linalg.rank)."""
    if not rows:
        return not any(vec)
    return linalg.solve([list(col) for col in zip(*rows)], list(vec)) is not None


def _admissible_mask_table(rows, target, members):
    """For each subset mask of `members`, is target outside the span of those rows?
    One span test per subset, as i_complexity did before one subset-rank table
    served every index; kept as the oracle of that table."""
    n = len(members)
    table = [False] * (1 << n)
    for mask in range(1 << n):
        sub = [rows[members[k]] for k in range(n) if mask >> k & 1]
        table[mask] = not _in_span(target, sub)
    return table


def _i_complexity_oracle(sys, i):
    """(s, classes) of i_complexity as it was computed from the per-index table."""
    rows, t = sys.coefficient_matrix(), sys.t
    others = [j for j in range(t) if j != i]
    if any(sys.forms[i].parallel_to(sys.forms[j]) for j in others):
        return inf, None
    n = len(others)
    if n == 0:
        return 0, []
    admissible = _admissible_mask_table(rows, rows[i], others)
    full = (1 << n) - 1
    dp, choice = [n + 1] * (1 << n), [0] * (1 << n)
    dp[0] = 0
    for mask in range(1, full + 1):
        low = mask & -mask
        sub = mask
        while sub:
            if sub & low and admissible[sub] and dp[mask ^ sub] + 1 < dp[mask]:
                dp[mask], choice[mask] = dp[mask ^ sub] + 1, sub
            sub = (sub - 1) & mask
    classes, mask = [], full
    while mask:
        classes.append([others[k] for k in range(n) if choice[mask] >> k & 1])
        mask ^= choice[mask]
    return dp[full] - 1, classes


@st.composite
def _complexity_systems(draw):
    """1-7 forms on Z^1..Z^4 with coefficients in -3..3; a drawn form may repeat
    an earlier homogeneous part or be a multiple of it (parallel forms)."""
    d = draw(st.integers(1, 4))
    rows = []
    for _ in range(draw(st.integers(1, 7))):
        if rows and draw(st.integers(0, 3)) == 0:
            rows.append([draw(st.sampled_from([-2, 1, 3])) * x for x in draw(st.sampled_from(rows))])
        else:
            rows.append(draw(st.lists(st.integers(-3, 3), min_size=d, max_size=d).filter(any)))
    return forms.system(rows, draw(st.lists(st.integers(-3, 3), min_size=len(rows), max_size=len(rows))))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(_complexity_systems())
@example(forms.cube_system(4))
@example(forms.system([[1, 0]]))
@example(forms.system([[1], [1]], [0, 2]))
def test_complexity_matches_per_index_tables(sys):
    want = [_i_complexity_oracle(sys, i) for i in range(sys.t)]
    res = forms.complexity(sys)
    assert res.per_index == [s for s, _ in want]
    assert res.overall == max(s for s, _ in want)
    assert res.witnesses == {i: cls for i, (_, cls) in enumerate(want) if cls is not None}
    for i, (s, cls) in enumerate(want):
        assert forms.i_complexity(sys, i, with_witness=True) == (s, cls)
        assert forms.i_complexity(sys, i) == s


def _normal_form_extension_per_index(sys, s):
    """normal_form_extension with the classes of each extended index taken from
    its own i_complexity search on the system extended so far."""
    current, f_vectors = sys, []
    for i in range(sys.t):
        if forms.normal_form_witness(current, i, s) is not None:
            continue
        _, classes = forms.i_complexity(current, i, with_witness=True)
        rows = current.coefficient_matrix()
        new_fs = [forms._witness_vector([rows[j] for j in cls], rows[i]) for cls in classes]
        current = forms.FormSystem(tuple(
            forms.AffineForm(f.linear_coeffs + tuple(sum(c * x for c, x in zip(f.linear_coeffs, v)) for v in new_fs),
                             f.constant)
            for f in current.forms
        ))
        f_vectors.extend(new_fs)
    return current, f_vectors


@st.composite
def _extension_cases(draw):
    """2-6 forms on Z^1..Z^4 with coefficients and constants in -3..3."""
    d, t = draw(st.integers(1, 4)), draw(st.integers(2, 6))
    rows = draw(st.lists(st.lists(st.integers(-3, 3), min_size=d, max_size=d).filter(any), min_size=t, max_size=t))
    return forms.system(rows, draw(st.lists(st.integers(-3, 3), min_size=t, max_size=t)))


@settings(max_examples=150, derandomize=True, deadline=None)
@given(_extension_cases())
@example(forms.ap_system(4))
@example(forms.ap_system(6))
@example(forms.cube_system(3))
@example(forms.cube_system(4))
def test_normal_form_extension_matches_per_index_route(sys):
    # at every s from the complexity to t - 1, the classes read from the
    # opening complexity search give the per-index route's extension
    overall = forms.complexity(sys).overall
    if overall == inf:
        with pytest.raises(ValueError, match="no normal form"):
            forms.normal_form_extension(sys, sys.t)
        return
    for s in range(overall, sys.t):
        assert forms.normal_form_extension(sys, s) == _normal_form_extension_per_index(sys, s)
