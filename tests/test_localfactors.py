import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affprimes import forms, linalg, localfactors as lf
from affprimes.arith import factorize, prime_sieve

AP4 = forms.ap_system(4)


def small_primes(limit):
    return [int(p) for p in np.nonzero(prime_sieve(limit))[0]]


def _form_values(sys, point):
    return [sum(r * x for r, x in zip(row, point)) + c for row, c in zip(sys.coefficient_matrix(), sys.constants())]


def euler_phi(q):
    out = q
    for p in factorize(q):
        out -= out // p
    return out


def local_von_mangoldt(q, b):
    """Lambda_{Z_q}(b) = q/phi(q) on units, 0 otherwise; q-periodic in b."""
    if q == 1:
        return Fraction(1)
    if math.gcd(b % q, q) != 1:
        return Fraction(0)
    return Fraction(q, euler_phi(q))


def local_factor_enumerate(sys, p):
    """beta_p by enumerating Z_p^d: the oracle of local_factor (p^d small)."""
    count = sum(all(v % p for v in _form_values(sys, x)) for x in itertools.product(range(p), repeat=sys.d))
    return Fraction(p, p - 1) ** sys.t * Fraction(count, p**sys.d)


def local_factor_q_enumerate(sys, q):
    """beta_q by enumerating Z_q^d for any q (q^d small): the oracle of beta_q = prod_{p | q} beta_p."""
    total = sum(
        math.prod((local_von_mangoldt(q, v) for v in _form_values(sys, x)), start=Fraction(1))
        for x in itertools.product(range(q), repeat=sys.d)
    )
    return total / q**sys.d


def alpha_p_direct(a_rows, b, p, box):
    """The defining limit of alpha_p truncated to [-box, box]^t: the oracle of alpha_p."""
    points = [
        x for x in itertools.product(range(-box, box + 1), repeat=len(a_rows[0]))
        if all(sum(a * xi for a, xi in zip(row, x)) == bi for row, bi in zip(a_rows, b))
    ]
    if not points:
        raise ValueError("no lattice points in the box")
    total = sum(math.prod((local_von_mangoldt(p, xi) for xi in x), start=Fraction(1)) for x in points)
    return total / len(points)


def test_local_von_mangoldt():
    assert local_von_mangoldt(6, 5) == 3
    assert local_von_mangoldt(6, 4) == 0
    assert local_von_mangoldt(1, 12345) == 1
    assert local_von_mangoldt(6, 11) == 3        # periodicity
    assert local_von_mangoldt(6, -1) == 3


def test_ap4_golden_factors():
    assert lf.local_factor(AP4, 2) == 4
    assert lf.local_factor(AP4, 3) == Fraction(9, 8)
    # the closed form 1 - (3p-1)/(p-1)^3 at p = 5
    assert lf.local_factor(AP4, 5) == Fraction(25, 32)
    for p in small_primes(50)[2:]:
        assert lf.local_factor(AP4, p) == 1 - Fraction(3 * p - 1, (p - 1) ** 3)


def test_identity_system_unit_factors():
    ident = forms.identity_system(3)
    for p in (2, 3, 5, 11):
        assert lf.local_factor(ident, p) == 1


def test_inclusion_exclusion_vs_enumeration():
    fixtures = [
        AP4,
        forms.ap_system(3),
        forms.balog_system(2),
        forms.vinogradov_system(101),
        forms.system([[1], [1]], [0, 2]),
    ]
    for sys in fixtures:
        for p in small_primes(23):
            if p**sys.d <= 10**6:
                assert lf.local_factor(sys, p) == local_factor_enumerate(sys, p), (
                    str(sys),
                    p,
                )


def test_generic_profile_agrees_with_exact():
    data = lf.SystemLocalData(AP4)
    for p in small_primes(200):
        if p not in data.exceptional:
            assert data.generic_beta(p) == lf.local_factor(AP4, p)


def test_multiplicativity():
    def beta_q(sys, q):
        return math.prod((lf.local_factor(sys, p) for p in factorize(q)), start=Fraction(1))

    assert beta_q(AP4, 6) == Fraction(9, 2)
    assert beta_q(AP4, 1) == 1
    assert beta_q(forms.identity_system(2), 30) == 1
    # direct enumeration over Z_q for pq <= 1000, d <= 2
    for sys in (forms.ap_system(3), forms.balog_system(2)):
        for q in (6, 10, 15, 21, 35):
            assert beta_q(sys, q) == local_factor_q_enumerate(sys, q)


def test_ap_k_closed_form_agrees():
    for k in range(2, 7):
        sysk = forms.ap_system(k)
        for p in small_primes(97):
            assert lf.ap_k_local_factor(k, p) == lf.local_factor(sysk, p), (k, p)
    assert lf.ap_k_local_factor(4, 3) == Fraction(9, 8)
    assert lf.ap_k_local_factor(4, 2) == 4
    for p in (2, 3, 5, 7):
        assert lf.ap_k_local_factor(2, p) == 1


def test_beta_p_decay_bounds():
    # beta_p = 1 + O(1/p); and O(1/p^2) for pairwise affinely independent systems
    fixtures = [AP4, forms.ap_system(3), forms.balog_system(2), forms.cube_system(3)]
    for sys in fixtures:
        data = lf.SystemLocalData(sys)
        sup1 = sup2 = 0.0
        for p in small_primes(10**4):
            b = float(data.generic_beta(p)) if p not in data.exceptional else float(
                lf.local_factor(sys, p)
            )
            sup1 = max(sup1, p * abs(b - 1))
            sup2 = max(sup2, p * p * abs(b - 1))
        assert sup1 <= 64, str(sys)
        assert sup2 <= 640, str(sys)


def test_singular_series_golden_constants():
    s1 = lf.singular_series(AP4, 10**6, min_prime=5)
    assert abs(0.75 * s1.truncated_product - 0.4764) <= 5e-5
    ex19 = forms.system([[1, 0], [0, 1], [1, 1], [1, 2]], [0, 0, -1, -2])
    s2 = lf.singular_series(ex19, 10**6, min_prime=3)
    assert abs(s2.truncated_product - 1.0481) <= 5e-5
    assert s1.tail_log_bound < 1e-4 and s2.tail_log_bound < 1e-4


def test_singular_series_bit_identical():
    # the generic/exceptional split (np.isin) keeps every bit of the product
    # and its parts; the values are those of the per-prime set filter it replaced
    want = {
        "ap4": ("0x1.6ddb1be9421a1p+1", "0x1.0cda839fec91fp+0", "0x1.80142260b0b94p+1", [2, 3]),
        "cube4": ("0x1.b1278bb8b0a9cp+5", "0x1.feee7b4765366p+1", "0x1.2246946dd1400p-10", [2]),
    }
    for name, sys in (("ap4", AP4), ("cube4", forms.cube_system(4))):
        ss = lf.singular_series(sys, 10**6)
        got = (ss.truncated_product.hex(), ss.log_product.hex(), ss.envelope_constant.hex(), ss.exceptional_primes)
        assert got == want[name]


def test_singular_series_vanishing():
    consec = forms.system([[1], [1]], [0, 1])
    ss = lf.singular_series(consec, 1000)
    assert ss.vanishing
    assert lf.local_factor(consec, 2) == 0


def test_p_max_below_1_refused():
    # refused before sieving, naming the CLI key; p_max = 1 is the empty product
    for p_max in (0, -3):
        for run in (lf.singular_series, lf.local_profile):
            with pytest.raises(ValueError, match=f"pmax must be at least 1, not {p_max}"):
                run(AP4, p_max)
    ss = lf.singular_series(AP4, 1)
    assert ss.truncated_product == 1.0 and ss.tail_log_bound == 0.0
    assert lf.local_profile(AP4, 1).primes == []


def test_alpha_p_vinogradov():
    n = 10**6 + 1       # odd, not divisible by 3
    a = [[1, 1, 1]]
    vin = forms.vinogradov_system(n)
    # both evaluation routes agree (parameterization vs the instantiated system)
    assert lf.alpha_p(a, [n], 2) == lf.local_factor(vin, 2) == 2
    assert lf.alpha_p(a, [n], 3) == lf.local_factor(vin, 3)
    # classical form: 1 + 1/(p-1)^3 for p coprime to N
    for p in (2, 3, 7, 11):
        if n % p:
            assert lf.alpha_p(a, [n], p) == 1 + Fraction(1, (p - 1) ** 3)


def test_alpha_p_truncated_limit_direct():
    # small-box evaluation of the defining limit approaches alpha_p
    n = 15
    a = [[1, 1, 1]]
    for p in (2, 3):
        exact = lf.alpha_p(a, [n], p)
        approx = alpha_p_direct(a, [n], p, box=12)
        assert abs(float(approx) - float(exact)) < 0.4, (p, approx, exact)


def test_no_constraint_alpha():
    # s = 0: the density is 1; realised through a single free form
    one = forms.system([[1]])
    for p in (2, 3, 5):
        assert lf.local_factor(one, p) == 1


def test_exceptional_primes():
    twin = forms.system([[1], [1]], [0, 2])
    e = lf.exceptional_primes(twin)
    assert e.primes == [2]
    assert e.X == pytest.approx(2 ** -0.5)
    e4 = lf.exceptional_primes(AP4)
    assert set(e4.primes) <= {2, 3}
    # verified directly: dependence mod p for p <= 100
    for p in small_primes(100):
        dependent = False
        for i in range(AP4.t):
            for j in range(i + 1, AP4.t):
                a = list(AP4.forms[i].linear_coeffs) + [AP4.forms[i].constant]
                b = list(AP4.forms[j].linear_coeffs) + [AP4.forms[j].constant]
                if all(
                    (a[k] * b[l] - a[l] * b[k]) % p == 0
                    for k in range(3)
                    for l in range(3)
                ):
                    dependent = True
        assert dependent == (p in e4.primes), p
    ident = lf.exceptional_primes(forms.identity_system(3))
    assert ident.primes == [] and ident.X == 0
    with pytest.raises(ValueError, match="infinite"):
        lf.exceptional_primes(forms.system([[1], [2]], [0, 0]))


def _exceptional_oracle(sys):
    """The 2x2-minor loop exceptional_primes ran before it read Smith's d2."""
    t, d = sys.t, sys.d
    out = set()
    for i in range(t):
        for j in range(i + 1, t):
            a = list(sys.forms[i].linear_coeffs) + [sys.forms[i].constant]
            b = list(sys.forms[j].linear_coeffs) + [sys.forms[j].constant]
            g = 0
            for k in range(d + 1):
                for l in range(k + 1, d + 1):
                    g = math.gcd(g, abs(a[k] * b[l] - a[l] * b[k]))
            if g == 0:
                return None
            out |= set(factorize(g))
    return sorted(out)


@st.composite
def _small_systems(draw):
    """2-4 forms on Z^1..Z^3 with entries in [-12, 12]; sometimes also 3 times the first."""
    d = draw(st.integers(1, 3))
    rows = draw(st.lists(st.lists(st.integers(-12, 12), min_size=d, max_size=d).filter(any), min_size=2, max_size=4))
    consts = draw(st.lists(st.integers(-12, 12), min_size=len(rows), max_size=len(rows)))
    if draw(st.booleans()):     # dependent over Q: the exceptional set is infinite
        rows.append([3 * x for x in rows[0]])
        consts.append(3 * consts[0])
    return forms.system(rows, consts)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_small_systems())
def test_exceptional_primes_match_minor_loop(sys):
    want = _exceptional_oracle(sys)
    if want is None:
        with pytest.raises(ValueError, match="infinite"):
            lf.exceptional_primes(sys)
    else:
        assert lf.exceptional_primes(sys).primes == want


def test_local_profile_rows():
    prof = lf.local_profile(AP4, 13)
    rows = list(prof.rows())
    assert rows[0] == (2, 4, 1, 4.0)
    assert rows[1][:3] == (3, 9, 8)


@st.composite
def _exceptional_systems(draw):
    """Systems with a row scaled by 2, 3 or 5, constants, and forms sharing a homogeneous part."""
    d = draw(st.integers(1, 3))
    t = draw(st.integers(2, 5))
    row = st.lists(st.integers(-4, 4), min_size=d, max_size=d).filter(any)
    rows = draw(st.lists(row, min_size=t, max_size=t))
    consts = draw(st.lists(st.integers(-6, 6), min_size=t, max_size=t))
    if draw(st.booleans()):
        # psi_j - psi_i is a nonzero constant: {psi_i = psi_j = 0} is inconsistent over Q
        i, j = draw(st.integers(0, t - 1)), draw(st.integers(0, t - 1))
        if i != j:
            rows[j] = list(rows[i])
            consts[j] = consts[i] + draw(st.sampled_from([-3, -1, 1, 2, 6]))
    # a coefficient row (or the whole form) with a common factor: rank drops mod factor
    factor = draw(st.sampled_from([2, 3, 5]))
    scaled = draw(st.integers(0, t - 1))
    rows[scaled] = [factor * x for x in rows[scaled]]
    if draw(st.booleans()):
        consts[scaled] *= factor
    return forms.system(rows, consts), factor


@settings(max_examples=150, derandomize=True, deadline=None)
@given(_exceptional_systems())
def test_local_profile_matches_local_factor(case):
    # generic formula off the exceptional primes, local_factor at them
    sys, factor = case
    assert factor in lf.SystemLocalData(sys).exceptional
    prof = lf.local_profile(sys, 200)
    assert prof.primes == small_primes(200)
    assert prof.beta == [lf.local_factor(sys, p) for p in prof.primes]


def test_rank_and_primes_from_one_smith_form():
    def fac(n):
        out, p = set(), 2
        while p * p <= n:
            while n % p == 0:
                out.add(p)
                n //= p
            p += 1
        return out | ({n} if n > 1 else set())

    assert lf._rank_and_primes([[2, 0], [0, 6]]) == (2, {2, 3})
    assert lf._rank_and_primes([[1, 0], [0, 1]]) == (2, set())
    assert lf._rank_and_primes([[2, 4], [3, 6]]) == (1, set())
    # random matrices: Bareiss rank, and the primes of the invariant factors by trial division
    rng = np.random.default_rng(15)
    for _ in range(200):
        mat = rng.integers(-30, 31, size=rng.integers(1, 5, 2)).tolist()
        d, _, _ = linalg.smith_normal_form(mat)
        want = set().union(*(fac(abs(x)) for x in d if abs(x) > 1))
        assert lf._rank_and_primes(mat) == (linalg.rank(mat), want), mat


def _local_data_oracle(sys):
    """SystemLocalData's profiles, exceptional primes and generic coefficients
    as its loop computed them before one Smith form per matrix gave both: the
    Bareiss rank of each subset and of its augmented matrix, then the primes
    of the invariant factors > 1 of both."""
    rows, consts, t = sys.coefficient_matrix(), sys.constants(), sys.t
    profiles, bad, coeff = {}, set(), {0: 1}
    for mask in range(1, 1 << t):
        idx = [i for i in range(t) if mask >> i & 1]
        sub = [rows[i] for i in idx]
        aug = [rows[i] + [-consts[i]] for i in idx]
        r = linalg.rank(sub)
        profiles[mask] = lf.SubsetProfile(rank=r, consistent=linalg.rank(aug) == r)
        for mat in (sub, aug):
            bad |= {p for x in linalg.smith_normal_form(mat)[0] if x > 1 for p in factorize(x)}
        if profiles[mask].consistent:
            coeff[r] = coeff.get(r, 0) + (-1 if len(idx) % 2 else 1)
    return profiles, sorted(bad), sorted(coeff.items())


@settings(max_examples=150, derandomize=True, deadline=None)
@given(_exceptional_systems())
def test_system_local_data_matches_rank_loop(case):
    sys, _ = case
    data = lf.SystemLocalData(sys)
    assert (data.profiles, data.exceptional, data.generic_coeff) == _local_data_oracle(sys)


def _two_smith_oracle(sys):
    """SystemLocalData as it was before homogeneous subsets took one Smith
    form: _rank_and_primes of every subset's matrix and of its augmented matrix."""
    rows, consts, t = sys.coefficient_matrix(), sys.constants(), sys.t
    profiles, bad, coeff = {}, set(), {0: 1}
    for mask in range(1, 1 << t):
        idx = [i for i in range(t) if mask >> i & 1]
        r, ps = lf._rank_and_primes([rows[i] for i in idx])
        r_aug, ps_aug = lf._rank_and_primes([rows[i] + [-consts[i]] for i in idx])
        profiles[mask] = lf.SubsetProfile(rank=r, consistent=r_aug == r)
        bad |= ps | ps_aug
        if r_aug == r:
            coeff[r] = coeff.get(r, 0) + (-1 if len(idx) % 2 else 1)
    return profiles, sorted(bad), sorted(coeff.items())


@st.composite
def _mostly_homogeneous_systems(draw):
    """2-5 forms on Z^1..Z^3, entries in -6..6, constants mostly 0: all 0, or a
    few nonzero, some of them on forms that share a multiple of their coefficients."""
    d = draw(st.integers(1, 3))
    t = draw(st.integers(2, 5))
    row = st.lists(st.integers(-6, 6), min_size=d, max_size=d).filter(any)
    rows = draw(st.lists(row, min_size=t, max_size=t))
    if draw(st.booleans()):
        rows[-1] = [draw(st.sampled_from([-2, 1, 3])) * x for x in rows[0]]
    consts = draw(st.lists(st.sampled_from([0, 0, 0, 1, -2, 6]), min_size=t, max_size=t))
    return forms.system(rows, consts)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_mostly_homogeneous_systems())
def test_system_local_data_matches_two_smith_route(sys):
    data = lf.SystemLocalData(sys)
    assert (data.profiles, data.exceptional, data.generic_coeff) == _two_smith_oracle(sys)


def test_homogeneous_subsets_take_one_smith_form(monkeypatch):
    # cube(4) is homogeneous: one Smith form for each of its 255 subsets;
    # one nonzero constant adds one for each subset that holds its form
    calls = []
    smith = linalg.smith_normal_form
    monkeypatch.setattr(linalg, "smith_normal_form", lambda *a, **k: calls.append(1) or smith(*a, **k))
    cube = forms.cube_system(4)
    lf.SystemLocalData(cube)
    assert len(calls) == 255
    calls.clear()
    shifted = forms.system(cube.coefficient_matrix(), [0] * (cube.t - 1) + [5])
    data = lf.SystemLocalData(shifted)
    assert len(calls) == 255 + 128
    assert (data.profiles, data.exceptional, data.generic_coeff) == _two_smith_oracle(shifted)


def _generic_beta_by_terms(data, p):
    """generic_beta as it was summed before one Fraction per prime: a Fraction
    c/p^r per rank r, then times (p/(p-1))^t; kept as its oracle."""
    acc = Fraction(0)
    for r, c in data.generic_coeff:
        acc += Fraction(c, p**r)
    return Fraction(p, p - 1) ** data.sys.t * acc


@st.composite
def _full_rank_systems(draw):
    """2-5 forms on Z^1..Z^3 with coefficients in -4..4 and constants in -6..6
    whose coefficient matrix has rank d."""
    d = draw(st.integers(1, 3))
    t = draw(st.integers(max(d, 2), 5))
    row = st.lists(st.integers(-4, 4), min_size=d, max_size=d).filter(any)
    rows = draw(st.lists(row, min_size=t, max_size=t).filter(lambda rs: linalg.rank(rs) == d))
    return forms.system(rows, draw(st.lists(st.integers(-6, 6), min_size=t, max_size=t)))


@settings(max_examples=25, derandomize=True, deadline=None)
@given(_full_rank_systems())
def test_generic_beta_matches_term_sum(sys):
    data = lf.SystemLocalData(sys)
    for p in small_primes(2000):
        got, want = data.generic_beta(p), _generic_beta_by_terms(data, p)
        assert (got.numerator, got.denominator) == (want.numerator, want.denominator), p
        if p not in data.exceptional:
            assert got == lf.local_factor(sys, p), p


def test_envelope_reads_the_product_array():
    # singular_series takes the envelope from the beta array of the product,
    # sliced at the last decade; recomputing that decade gives the same bits
    cases = [(forms.cube_system(4), 10**6), (forms.ap_system(3), 10**5), (AP4, 10**5),
             (forms.system([[1], [1]], [0, 2]), 10**5), (AP4, 10), (AP4, 3)]
    for sys, p_max in cases:
        data = lf.SystemLocalData(sys)
        primes = np.array(small_primes(p_max), dtype=np.int64)
        generic = primes[~np.isin(primes, data.exceptional)]
        decade = generic[generic >= max(p_max // 10, 2)]
        want = (float(np.max(decade.astype(np.float64) ** 2 * np.abs(data.generic_beta_array(decade) - 1.0)))
                if len(decade) else 0.0)
        assert lf.singular_series(sys, p_max).envelope_constant.hex() == want.hex(), (str(sys), p_max)
