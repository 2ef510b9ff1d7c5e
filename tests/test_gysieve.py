import functools
import math
import types
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affprimes import arith, counting, forms, geometry, gysieve, localfactors


SMOOTHSTEP_SQ_INT = 0.39177489177489176      # int_0^1 s(u)^2 du = 36/11-18+345/9-75/2+100/7


def normalized_bump_c2_exact(eps=1e-6):
    """Closed-form c_{chi,2} of the normalized bump."""
    return (1 - 2 * eps + 2 * eps * SMOOTHSTEP_SQ_INT) / (1 - eps) ** 2


def divisor_loop_oracle(n, chi, big_r, a, tables):
    """From-scratch full divisor loop (not restricted to squarefree d)."""
    log_r = math.log(big_r)
    divs = []
    for d in range(1, n + 1):
        if n % d == 0:
            divs.append(d)
    acc = 0.0
    for d in divs:
        mu = int(tables.mobius[d])
        if mu:
            acc += mu * float(chi(math.log(d) / log_r))
    return log_r * acc**a


class TestCutoffs:
    def test_normalized_bump_invariants(self):
        chi = gysieve.normalized_bump()
        assert float(chi(0.0)) == 1.0
        assert float(chi(1.0)) == 0.0
        assert float(chi(1.5)) == 0.0
        xs = np.linspace(-1.2, 1.2, 401)
        assert np.allclose(chi(xs), chi(-xs))       # even
        # C^2 smoothness: finite differences of chi match chi' away from the
        # (tiny) smoothing windows
        for x in (0.1, 0.37, 0.62, 0.9):
            h = 1e-7
            fd = (float(chi(x + h)) - float(chi(x - h))) / (2 * h)
            assert fd == pytest.approx(float(chi.derivative(x)), abs=1e-6)

    def test_normalized_c2_within_tolerance(self):
        chi = gysieve.normalized_bump()
        c2 = gysieve.sieve_factor(chi, 2)
        assert abs(c2 - 1.0) <= 1e-6
        assert c2 == pytest.approx(normalized_bump_c2_exact(), rel=1e-9)

    def test_tent_taper_factors(self):
        tent = gysieve.tent_taper(0.1)
        assert gysieve.sieve_factor(tent, 1) == pytest.approx(1.0)
        # c1 -> 1 and c2 -> 1 as the end-smoothing shrinks
        prev = None
        for delta in (0.2, 0.1, 0.05):
            c2 = gysieve.sieve_factor(gysieve.tent_taper(delta), 2)
            if prev is not None:
                assert abs(c2 - 1) < abs(prev - 1)
            prev = c2
        assert abs(prev - 1) < 0.02

    def test_scaling_homogeneity(self):
        # chi -> 2 chi doubles c_{chi,1} and quadruples c_{chi,2}
        tent = gysieve.tent_taper(0.1)
        doubled = gysieve.SmoothCutoff(
            family_id="2*tent",
            evaluator=lambda x: 2.0 * tent(x),
            derivative=lambda x: 2.0 * tent.derivative(x),
            breakpoints=tent.breakpoints,
        )
        assert gysieve.sieve_factor(doubled, 1) == pytest.approx(
            2 * gysieve.sieve_factor(tent, 1)
        )
        assert gysieve.sieve_factor(doubled, 2) == pytest.approx(
            4 * gysieve.sieve_factor(tent, 2)
        )
        with pytest.raises(ValueError):
            gysieve.sieve_factor(tent, 3)

    def test_sharp_flat_partition(self):
        chi_s, flat = gysieve.split_sharp_flat()
        xs = np.linspace(0.0, 2.0, 2001)
        assert np.max(np.abs(chi_s(xs) + flat(xs) - xs)) < 1e-12
        assert float(chi_s(0.3)) == 0.3 and float(flat(0.3)) == 0.0
        assert float(chi_s(1.2)) == 0.0 and float(flat(1.2)) == pytest.approx(1.2)
        assert gysieve.sieve_factor(chi_s, 1) == pytest.approx(-1.0)


class TestDivisorSums:
    def test_examples(self):
        chi = gysieve.normalized_bump()
        big_r = 4.0
        arr = gysieve.gy_weight_array(chi, big_r, 1, 101)
        assert arr[1] == pytest.approx(math.log(big_r))
        # prime above R: only d = 1 contributes
        assert arr[101] == pytest.approx(math.log(big_r))
        expect = math.log(big_r) * (
            1.0
            - float(chi(math.log(2) / math.log(4)))
            - float(chi(math.log(3) / math.log(4)))
        )
        assert arr[6] == pytest.approx(expect)

    def test_matches_divisor_loop_oracle(self, tables_1e6):
        chi = gysieve.normalized_bump()
        ns = list(range(1, 200)) + [1024, 5040, 9240, 9973]
        for big_r, a in [(30.0, 1), (30.0, 2), (200.0, 2)]:
            arr = gysieve.gy_weight_array(chi, big_r, a, ns[-1])
            for n in ns:
                slow = divisor_loop_oracle(n, chi, big_r, a, tables_1e6)
                assert arr[n] == pytest.approx(slow, abs=1e-12), (n, big_r, a)

    def test_array_matches_pointwise(self, tables_1e6):
        chi = gysieve.tent_taper(0.1)
        arr = gysieve.gy_weight_array(chi, 50.0, 2, 4000)
        for n in (1, 2, 16, 30, 210, 2310, 3989):
            assert arr[n] == pytest.approx(divisor_loop_oracle(n, chi, 50.0, 2, tables_1e6), abs=1e-10)

    def test_nonnegativity_and_prime_value(self, tables_1e6):
        chi = gysieve.normalized_bump()
        big_r = 100.0
        arr = gysieve.gy_weight_array(chi, big_r, 2, 10**5)
        assert (arr >= -1e-12).all()
        primes = tables_1e6.primes[(tables_1e6.primes > 100) & (tables_1e6.primes < 10**5)]
        assert np.allclose(arr[primes], math.log(big_r))

    def test_majorizes_lambda_prime(self, tables_1e6):
        # Lambda'(n) <= (1/(gamma chi(0)^2)) Lambda_{chi,R,2}(n) for R < n <= N
        n, gamma = 10**5, 0.25
        big_r = float(n) ** gamma
        chi = gysieve.normalized_bump()
        arr = gysieve.gy_weight_array(chi, big_r, 2, n)
        lo = int(big_r) + 1
        lhs = tables_1e6.von_mangoldt_prime[lo: n + 1]
        rhs = arr[lo: n + 1] / (gamma * float(chi(0.0)) ** 2)
        assert (lhs <= rhs + 1e-9).all()


def test_divisor_sums_keep_their_bits():
    # .hex() values recorded when the divisors came from a smallest-prime-factor table
    tent = gysieve.tent_taper(0.1)
    assert [gysieve.lambda_flat_value(n, 40.0).hex() for n in (1, 12, 30, 9240, 720720, 30030 * 7919)] == [
        "-0x0.0p+0", "-0x0.0p+0", "0x1.df749608cd0adp+0",
        "0x1.e4b67bc8eda31p-1", "-0x1.1fa8ed6da5750p-1", "-0x1.1fa8ed6da56aep-1"]
    with pytest.raises(ValueError):
        gysieve.lambda_flat_value(0, 40.0)
    arr = gysieve.gy_weight_array(tent, 50.0, 2, 4000)
    assert [float(arr[n]).hex() for n in (1, 2, 30, 210, 2310, 3989)] == [
        "0x1.f4bd2b7ac1bafp+1", "0x1.f70c4d03afddap-4", "0x0.0p+0",
        "0x1.7a863e884d99ap-5", "0x1.6c9c93d3987e5p-8", "0x1.f4bd2b7ac1bafp+1"]
    assert float(arr.sum()).hex() == "0x1.ab3e45f749da4p+11"


class TestSharpSplit:
    def test_identity_on_initial_segment(self, tables_1e6):
        big_r = 40.0
        sharp = gysieve.lambda_sharp_array(10**4, big_r)
        for n in range(1, 10**4 + 1):
            flat = gysieve.lambda_flat_value(n, big_r)
            assert abs(sharp[n] + flat - tables_1e6.von_mangoldt[n]) <= 1e-9, n

    def test_sharp_gowers_decay(self):
        w30 = arith.w_trick(w=5)
        vals = {}
        for n in (10**4, 10**5):
            vals[n] = gysieve.sharp_gowers_check(n, 1, w30, 1, 0.4)
        assert vals[10**5] < vals[10**4]
        # W = 2 variant decays as well
        w2 = arith.w_trick(w=2)
        a = gysieve.sharp_gowers_check(10**4, 1, w2, 1, 0.4)
        b = gysieve.sharp_gowers_check(10**5, 1, w2, 1, 0.4)
        assert b < a

    def test_constant_replacement_gives_zero(self):
        from affprimes import gowers

        f = np.zeros(2000)      # (phi(W)/W) * [constant 1 field] - 1 = 0
        assert gowers.gowers_norm_local(f + 0.0, 1).norm == 0.0


@pytest.fixture(scope="module")
def sieve():
    return gysieve.build_enveloping_sieve(
        10**5, 1 / 20, 5.0, [1, 7, 11], c_factor=20
    )


class TestEnvelopingSieve:

    def test_construction(self, sieve):
        assert sieve.n_prime >= 20 * 10**5
        assert sieve.n_prime <= 40 * 10**5
        # nu >= 1/2 pointwise by construction; 1 outside [N]
        assert float(sieve.nu.min()) >= 0.5
        assert sieve.nu[0] == 1.0 and sieve.nu[10**5 + 1] == 1.0

    def test_measure(self, sieve):
        assert abs(sieve.mean() - 1.0) <= 0.1

    def test_domination(self, sieve):
        c_dom = gysieve.domination_constant(sieve)
        assert math.isfinite(c_dom)
        assert c_dom < 100

    def test_linear_forms_single_and_product(self, sieve):
        one = forms.system([[1]])
        r1 = gysieve.linear_forms_check(sieve, one)
        assert r1.method == "exact:product"
        assert r1.deviation == pytest.approx(abs(sieve.mean() - 1.0))
        indep = forms.system([[1, 0], [0, 1]])
        r2 = gysieve.linear_forms_check(sieve, indep)
        assert r2.expectation == pytest.approx(sieve.mean() ** 2)

    def test_linear_forms_dependent_system(self):
        devs = {}
        for n in (10**4, 10**5):
            sv = gysieve.build_enveloping_sieve(
                n, 1 / 20, 5.0, [1, 7, 11]
            )
            dep = forms.system([[1, 0], [1, 1]])
            devs[n] = gysieve.linear_forms_check(sv, dep).deviation
        assert devs[10**5] <= 0.2
        assert devs[10**5] < devs[10**4]

    def test_linear_forms_character_sum_route(self):
        # t = rank + 1 system goes through the exact FFT character sum; a tiny
        # Monte Carlo run should agree within sampling error
        sv = gysieve.build_enveloping_sieve(
            2000, 0.3, 3.0, [1, 5], c_factor=20
        )
        tri = forms.system([[1, 0], [0, 1], [1, 1]])
        exact = gysieve.linear_forms_check(sv, tri)
        assert exact.method == "exact:character-sum"
        # dependent-but-deficient system falls back to sampling
        quad = forms.system([[1, 0], [0, 1], [1, 1], [1, 2]])
        mc = gysieve.linear_forms_check(sv, quad, sample_budget=200000, seed=1)
        assert mc.method == "montecarlo"
        assert abs(mc.expectation - 1.0) < 0.2

    def test_correlation_condition(self, sieve):
        lhs, rhs, holds = gysieve.correlation_check(sieve, 2, [3, 9])
        assert holds and rhs >= 1.0
        # equal shifts route through the tau(0) cap
        lhs0, rhs0, holds0 = gysieve.correlation_check(sieve, 2, [4, 4])
        assert holds0 and rhs0 > rhs
        lhs3, rhs3, holds3 = gysieve.correlation_check(sieve, 3, [1, 5, 11])
        assert holds3

    def test_tau_moments(self, sieve):
        mom = gysieve.tau_moments(sieve, qs=(1, 2, 3), n_limit=10**5)
        for q in (1, 2, 3):
            assert mom[q] < 10.0

    def test_parameter_guards(self):
        with pytest.raises(ValueError):
            gysieve.build_enveloping_sieve(100, 0.7, 3.0, [1])
        with pytest.raises(ValueError):
            gysieve.build_enveloping_sieve(100, 0.1, 3.0, [1], c_factor=10)
        with pytest.raises(ValueError):
            gysieve.build_enveloping_sieve(100, 0.1, 3.0, [2])
        with pytest.raises(ValueError, match="b_list must not be empty"):
            gysieve.build_enveloping_sieve(100, 0.1, 3.0, [])


class TestGYEstimate:
    def test_twin_fixture_viable_gamma(self):
        tent = gysieve.tent_taper(0.1)
        twin = forms.system([[1], [1]], [0, 2])
        ratios = {}
        for n in (10**4, 10**5):
            body = geometry.ConvexBody.box(1, 1, n - 2, box_bound=n)
            out = gysieve.gy_estimate_check(
                twin, body, [tent, tent], [1, 1], 0.45
            )
            ratios[n] = out["ratio"]
        assert abs(ratios[10**5] - 1) <= 0.15
        assert abs(ratios[10**5] - 1) < abs(ratios[10**4] - 1)

    def test_single_form(self):
        tent = gysieve.tent_taper(0.1)
        one = forms.system([[1]])
        body = geometry.ConvexBody.box(1, 1, 10**5, box_bound=10**5)
        out = gysieve.gy_estimate_check(one, body, [tent], [1], 0.45)
        assert abs(out["ratio"] - 1) <= 0.1

    def test_empty_body(self):
        # the whole report, bit for bit: an empty K counts 0.0 over volume 0
        tent = gysieve.tent_taper(0.1)
        twin = forms.system([[1], [1]], [0, 2])
        body = geometry.ConvexBody(1, [((1,), 0), ((-1,), -1)], 10)
        for a_list, c_hex in (([1, 1], "0x1.0000000000000p+0"), ([2, 1], "0x1.05d9f7390d2a7p+0")):
            out = gysieve.gy_estimate_check(twin, body, [tent, tent], a_list, 0.3)
            assert out.pop("ratio") is None     # JSON null: the prediction is 0
            assert type(out["volume"]) is int
            assert {k: v.hex() if isinstance(v, float) else v for k, v in out.items()} == {
                "empirical": "0x0.0p+0",
                "predicted": "0x0.0p+0",
                "R": "0x1.fec982d5bb8afp+0",
                "sieve_factors": c_hex,
                "singular_series": "0x1.5200cc87a921bp+0",
                "volume": 0,
            }

    def test_degenerate_small_r_regime(self):
        # R = N^{1/20} < 2 leaves only the d = 1 divisor: the sum collapses to
        # (log R)^2 N and the ratio to (log R)^2 / singular product.  This is
        # the analytically forced value at the spec's asymptotic default.
        tent = gysieve.tent_taper(0.1)
        twin = forms.system([[1], [1]], [0, 2])
        n = 10**5
        body = geometry.ConvexBody.box(1, 1, n - 2, box_bound=n)
        out = gysieve.gy_estimate_check(twin, body, [tent, tent], [1, 1], 1 / 20)
        forced = math.log(float(n) ** (1 / 20)) ** 2 / out["singular_series"]
        assert out["ratio"] == pytest.approx(forced * (n - 2) / out["volume"], rel=1e-6)


def test_r_at_most_one_is_refused_by_the_divisor_sum_kernel():
    # R = N^gamma <= 1 leaves no divisor d > 1 below R: every entry point that
    # reaches divisor_sum_core_array refuses it there, before allocating
    msg = r"R = N\^gamma must exceed 1"
    with pytest.raises(ValueError, match=msg):
        gysieve.divisor_sum_core_array(gysieve.normalized_bump(), 1.0, 100)
    with pytest.raises(ValueError, match=msg):
        gysieve.build_enveloping_sieve(1, 0.3, 3.0, [1])
    with pytest.raises(ValueError, match=msg):
        gysieve.sharp_gowers_check(1, 1, arith.w_trick(w=3), 1, 0.3)
    twin = forms.system([[1], [1]], [0, 2])
    with pytest.raises(ValueError, match=msg):
        gysieve.gy_estimate_check(twin, geometry.ConvexBody.box(1, 1, 1, box_bound=1),
                                  [gysieve.tent_taper()] * 2, [1, 1], 0.3)


def _gy_count_as_was(sys_, body, tables):
    """The GY count as the engine read it before the shift: each table at
    |psi|, row by row, as _float_driver_as_was of tests/test_counting.py
    reads its runs.  Forms with inner coefficient 0 give each row a constant
    factor (rows where it is 0 dropped); the others' values are multiplied
    into one float64 run in form order, and each run's sum times its
    constant is one partial of a math.fsum.  Kept as the oracle of
    gy_estimate_check's shifted tables."""
    coeffs = np.array([f.linear_coeffs for f in sys_.forms], np.int64).reshape(sys_.t, sys_.d)
    consts = np.array([f.constant for f in sys_.forms], np.int64)
    inner = coeffs[:, -1].tolist()
    fixed = [i for i in range(sys_.t) if inner[i] == 0]
    varying = [i for i in range(sys_.t) if inner[i] != 0]
    partials = []
    for prefix, lo, hi in body.run_blocks():
        off = prefix @ coeffs[:, :-1].T + consts
        const = np.ones(len(lo))
        nonzero = np.ones(len(lo), bool)
        for i in fixed:
            v = tables[i][np.abs(off[:, i])]
            nonzero &= v != 0
            const = const * v
        if fixed:
            off, lo, hi, const = off[nonzero], lo[nonzero], hi[nonzero], const[nonzero]
        if not varying:
            partials.extend((const * (hi - lo + 1)).tolist())
            continue
        for c, o, a, b in zip(const.tolist(), off[:, varying].tolist(), lo.tolist(), hi.tolist()):
            acc = None
            for i, oi in zip(varying, o):
                vals = tables[i][np.abs(oi + inner[i] * np.arange(a, b + 1))]
                if acc is None:
                    acc = vals.astype(np.float64)
                else:
                    acc *= vals
            partials.append(c * float(acc.sum()))
    return math.fsum(partials)


def _gy_tables(sys_, body, chi_list, a_list, gamma):
    """Lambda_{chi_i,R,a_i} up to max |psi_i| over K plus 2, as gy_estimate_check built them
    before the shift."""
    m_max = max(counting._form_bound(body, f) or 0 for f in sys_.forms)
    big_r = float(body.box_bound) ** gamma
    return [gysieve.gy_weight_array(chi, big_r, a, m_max + 2) for chi, a in zip(chi_list, a_list)]


def _gy_estimate_as_was(sys_, body, chi_list, a_list, gamma, p_max):
    """gy_estimate_check's dict with the count of _gy_count_as_was."""
    empirical = _gy_count_as_was(sys_, body, _gy_tables(sys_, body, chi_list, a_list, gamma))
    c_prod = math.prod(gysieve.sieve_factor(chi, a) for chi, a in zip(chi_list, a_list))
    ss = localfactors.singular_series(sys_, p_max).truncated_product
    vol = body.lattice_point_count()
    predicted = c_prod * vol * ss
    return {"empirical": empirical, "predicted": predicted, "ratio": empirical / predicted if predicted else None,
            "R": float(body.box_bound) ** gamma, "sieve_factors": c_prod, "singular_series": ss, "volume": vol}


def _hex(out):
    return {k: v.hex() if isinstance(v, float) else v for k, v in out.items()}


GY_CUTOFFS = (gysieve.tent_taper(0.1), gysieve.normalized_bump())


@st.composite
def _gy_cases(draw):
    """(system, body, cutoffs, a_list, gamma) with forms that may reach negative values.

    Dims 1-3, coefficients -3..3 and constants of either sign over the box
    [-n, n]^d; the body is the box, the box cut by a random halfspace, the
    box where every form is >= 1, or empty.
    """
    d = draw(st.integers(1, 3))
    t = draw(st.integers(1, 3))
    n = draw(st.integers(2, {1: 300, 2: 25, 3: 6}[d]))
    coeff = st.lists(st.integers(-3, 3), min_size=d, max_size=d).filter(any)
    sys_ = forms.system([draw(coeff) for _ in range(t)],
                        draw(st.lists(st.integers(-3 * n, 3 * n), min_size=t, max_size=t)))
    body = geometry.ConvexBody.box(d, -n, n, box_bound=n)
    kind = draw(st.sampled_from(["box", "cut", "positive", "empty"]))
    if kind == "cut":
        body = body.intersect([(draw(coeff), draw(st.integers(-n, 2 * n)))])
    elif kind == "positive":
        body = body.with_positive_forms(sys_)
    elif kind == "empty":
        body = body.intersect([((1,) + (0,) * (d - 1), -1), ((-1,) + (0,) * (d - 1), -1)])
    chi = draw(st.sampled_from(GY_CUTOFFS))
    a_list = draw(st.lists(st.sampled_from([1, 2]), min_size=t, max_size=t))
    return sys_, body, [chi] * t, a_list, draw(st.sampled_from([0.3, 0.6, 0.9]))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(_gy_cases())
def test_gy_estimate_bit_identical_to_reading_tables_at_abs_psi(case):
    # the shifted plain tables give the whole dict, bit for bit, that reading
    # Lambda's table at |psi| row by row gives; the count is within 1e-12 of
    # sum |term| of the terms at the lattice points
    sys_, body, chi_list, a_list, gamma = case
    out = gysieve.gy_estimate_check(sys_, body, chi_list, a_list, gamma, p_max=50)
    assert _hex(out) == _hex(_gy_estimate_as_was(sys_, body, chi_list, a_list, gamma, 50))
    tables = _gy_tables(sys_, body, chi_list, a_list, gamma)
    terms = [
        math.prod(float(w[abs(f(prefix + (x,)))]) for f, w in zip(sys_.forms, tables))
        for prefix, lo, hi in body.runs() for x in range(lo, hi + 1)
    ]
    assert abs(out["empirical"] - math.fsum(terms)) <= 1e-12 * math.fsum(map(abs, terms))


def test_gy_shifted_table_passes_the_guard_before_allocating():
    # twins over [-500, 500]: Lambda's table reaches 502 + 2, the shifted one
    # 500 + 504.  A guard that passes the first refuses the second before any
    # table is built
    twins = forms.system([[1], [1]], [0, 2])
    body = geometry.ConvexBody.box(1, -500, 500, box_bound=500)
    with mock.patch.object(arith, "TABLE_GUARD", 504), \
            mock.patch.object(gysieve, "gy_weight_array", wraps=gysieve.gy_weight_array) as built:
        with pytest.raises(arith.ResourceGuard, match="table of size 1004 exceeds the 504 guard"):
            gysieve.gy_estimate_check(twins, body, [gysieve.tent_taper()] * 2, [1, 2], 0.3)
        assert not built.called
        # over [1, 500] the forms stay positive: no shift, and the table passes
        assert gysieve.gy_estimate_check(twins, geometry.ConvexBody.box(1, 1, 500), [gysieve.tent_taper()] * 2,
                                         [1, 2], 0.3, p_max=50)["volume"] == 500


def test_gy_count_copies_no_tile():
    # AP3 over its progression body (1 <= n1, 1 <= n2, n1 + 2 n2 <= N): the
    # forms' tiles are strided views of the tables, never np.stack copies,
    # and the count keeps its bits
    n = 5000
    body = geometry.ConvexBody(2, [((-1, 0), -1), ((1, 2), n), ((0, -2), -2)], n)
    with mock.patch.object(np, "stack", wraps=np.stack) as stack:
        out = gysieve.gy_estimate_check(forms.ap_system(3), body, [gysieve.tent_taper()] * 3, [1, 1, 1], 0.3)
    assert stack.call_count == 0
    assert out["empirical"].hex() == "0x1.1c27979713abep+23"


def test_linear_forms_character_sum_vs_brute_force():
    # exact FFT character sum agrees with full enumeration on a tiny sieve
    sv = gysieve.build_enveloping_sieve(40, 0.3, 3.0, [1, 5], c_factor=20)
    tri = forms.system([[1, 0], [0, 1], [1, 1]], [0, 0, 3])
    res = gysieve.linear_forms_check(sv, tri)
    assert res.method == "exact:character-sum"
    p, nu = sv.n_prime, sv.nu
    b = np.arange(p)
    total = 0.0
    for a in range(p):
        total += float(np.sum(nu[a] * nu[b] * nu[(a + b + 3) % p]))
    assert res.expectation == pytest.approx(total / p**2, abs=1e-9)


def _tau_moments_loop(sieve, qs=(1, 2, 3), n_limit=None, kappa=1.0, cap=None):
    """tau_moments as a Python loop over every prime up to W n_limit + W, one
    pow and one strided add per prime; kept as the oracle of the bincount."""
    if cap is None:
        cap = math.log(sieve.n_scale) ** 2
    n_limit = n_limit or sieve.n_scale
    w = sieve.wparams
    bl = sieve.b_list
    pairs = [(bi, bj) for k, bi in enumerate(bl) for bj in bl[k:]]
    hi = w.W * n_limit + max(b for b, _ in pairs) + 1
    psieve = np.nonzero(arith.prime_sieve(min(hi, w.W * n_limit + w.W)))[0]
    psieve = psieve[psieve > w.w]
    tau = np.zeros(n_limit + 1)
    for bi, bj in pairs:
        db = bi - bj
        s = np.zeros(n_limit + 1)
        for p in psieve:
            p = int(p)
            inv = pow(w.W % p, p - 2, p)
            n0 = (-db * inv) % p
            if n0 == 0:
                n0 = p
            if n0 <= n_limit:
                s[n0::p] += p ** -0.5
        tau += np.minimum(np.exp(kappa * s), cap)
    tau /= len(pairs)
    tau = tau[1:]
    return {q: float((tau**q).mean()) for q in qs}


@settings(max_examples=120, derandomize=True, deadline=None)
@given(st.data())
def test_tau_moments_matches_prime_loop(data):
    wp = arith.w_trick(w=data.draw(st.sampled_from([3.0, 5.0, 7.0])))
    units = [b + k * wp.W for b in wp.residues for k in (0, 1)]
    b_list = data.draw(st.lists(st.sampled_from(units), min_size=1, max_size=4))
    n_scale = data.draw(st.integers(2, 300))
    n_limit = data.draw(st.one_of(st.none(), st.integers(1, 300)))
    kappa = data.draw(st.floats(0.05, 3.0))
    cap = data.draw(st.one_of(st.none(), st.floats(1.0, 40.0)))
    sieve = types.SimpleNamespace(n_scale=n_scale, wparams=wp, b_list=tuple(b_list))
    got = gysieve.tau_moments(sieve, None, (1, 2, 3), n_limit, kappa, cap)
    want = _tau_moments_loop(sieve, (1, 2, 3), n_limit, kappa, cap)
    assert [got[q].hex() for q in (1, 2, 3)] == [want[q].hex() for q in (1, 2, 3)]


def test_tau_moments_edge_pairs_match_prime_loop():
    # residues 100 W apart (a prime cofactor of W n + bi - bj past the loop's
    # last prime W n_limit + W, and a zero at n = 100), and W n + bi - bj = 2
    # at n_limit = 1 (every prime <= w divided out although sqrt(2) < w)
    for w, b_list, n_limit in ((3.0, (1, 601), 10), (3.0, (1, 601), 150), (5.0, (1, 29), 1), (5.0, (29, 1, 7), 2)):
        sieve = types.SimpleNamespace(n_scale=10**4, wparams=arith.w_trick(w=w), b_list=b_list)
        for cap in (None, 1e300):
            got = gysieve.tau_moments(sieve, None, (1, 2, 3), n_limit, 0.5, cap)
            want = _tau_moments_loop(sieve, (1, 2, 3), n_limit, 0.5, cap)
            assert [got[q].hex() for q in (1, 2, 3)] == [want[q].hex() for q in (1, 2, 3)], (b_list, n_limit, cap)

def test_tau_moments_bit_identical_at_benchmark_size(monkeypatch):
    # the sieve-gowers tau-moments op (N = 1e5, W = 30, one residue).  With one
    # residue every pair has bi = bj, and p > w divides W n only if p | n, so
    # the sieve stops at N, not at W N = 3e6.
    sv = gysieve.build_enveloping_sieve(10**5, 0.3, 5.0, [11])
    want = _tau_moments_loop(sv)
    sizes, prime_sieve = [], arith.prime_sieve
    monkeypatch.setattr(arith, "prime_sieve", lambda n_hi, *args: sizes.append(n_hi) or prime_sieve(n_hi, *args))
    got = gysieve.tau_moments(sv)
    assert [got[q].hex() for q in (1, 2, 3)] == [want[q].hex() for q in (1, 2, 3)]
    assert max(sizes) == 10**5


def test_nu_matches_full_size_mobius_field(monkeypatch, tables_4e6):
    # mu(d), d <= R, read from a table of size R gives the nu of the 4e6 field
    for gamma, b_list in ((0.3, [11]), (0.3, [1, 7, 11]), (0.45, [1, 29])):
        sized = gysieve.build_enveloping_sieve(10**5, gamma, 5.0, b_list)
        with monkeypatch.context() as m:
            m.setattr(arith, "build_tables", lambda n_max: tables_4e6)
            full = gysieve.build_enveloping_sieve(10**5, gamma, 5.0, b_list)
        assert sized.nu.tobytes() == full.nu.tobytes()


def test_least_prime_at_least_matches_sieve():
    # build_enveloping_sieve takes N' = arith._next_prime(C N - 1), the least prime >= C N
    sieve = arith.prime_sieve(2 * 10**6 + 10)
    rng = np.random.default_rng(11)
    ns = [1, 2, 3, 4, 999983, 999984] + rng.integers(1, 10**6 + 1, 300).tolist()
    ns += np.flatnonzero(sieve[: 10**6])[rng.integers(0, 78498, 100)].tolist()
    for n in ns:
        assert arith._next_prime(n - 1) == n + int(np.flatnonzero(sieve[n:])[0]), n


def _tau_weight_spf(sieve, n_values, spf_factor, kappa=1.0, cap=None):
    """tau_weight factoring through a sieved smallest-prime-factor table up to
    1e6 (arith.factorize above it); kept as the oracle of arith.factorize."""
    if cap is None:
        cap = math.log(sieve.n_scale) ** 2
    w = sieve.wparams
    bl = sieve.b_list
    pairs = [(bi, bj) for k, bi in enumerate(bl) for bj in bl[k:]]
    out = []
    for n in n_values:
        acc = 0.0
        for bi, bj in pairs:
            v = w.W * int(n) + bi - bj
            if v == 0:
                acc += cap
                continue
            s = 0.0
            for p in spf_factor(abs(v)) if abs(v) <= 10**6 else arith.factorize(v):
                if p > w.w:
                    s += p ** -0.5
            acc += min(math.exp(kappa * s), cap)
        out.append(acc / len(pairs))
    return out


def test_tau_weight_matches_spf_factorization(spf_factor):
    ns = list(range(-400, 401)) + [10**4, -(10**4) + 1, 33333]
    for w, b_list, kappa, cap in ((3.0, (1, 5), 1.0, None), (5.0, (1, 7, 11, 29), 0.7, 9.0),
                                  (7.0, (11, 13 + 210, 209), 2.5, None)):
        sieve = types.SimpleNamespace(n_scale=10**5, wparams=arith.w_trick(w=w), b_list=b_list)
        got = gysieve.tau_weight(sieve, ns, kappa, cap)
        want = _tau_weight_spf(sieve, ns, spf_factor, kappa, cap)
        assert [v.hex() for v in got] == [v.hex() for v in want]


def test_correlation_check_builds_no_spf_table(monkeypatch):
    # tau factors each h_i - h_j with arith.factorize: no table of any kind is built
    sv = gysieve.build_enveloping_sieve(40, 0.3, 3.0, [1, 5], c_factor=20)
    monkeypatch.setattr(arith, "build_tables", lambda n_max: pytest.fail("table built"))
    monkeypatch.setattr(arith, "prime_sieve", lambda n_max: pytest.fail("primes sieved"))
    lhs, rhs, holds = gysieve.correlation_check(sv, 3, [1, 5, 11])
    assert (lhs.hex(), rhs.hex(), holds) == ("0x1.edbd81c9bcfa7p-1", "0x1.dbc85c44db088p+1", True)


def _montecarlo_one_shot(sieve, sys, sample_budget, seed):
    """The Monte-Carlo route drawing every sample at once; kept as the oracle
    of the row chunks.  Returns (expectation, stderr)."""
    p, nu = sieve.n_prime, sieve.nu
    rng = np.random.default_rng(seed)
    samples = rng.integers(0, p, size=(sample_budget, sys.d))
    prod = np.ones(sample_budget)
    for f in sys.forms:
        vals = np.zeros(sample_budget, dtype=np.int64)
        for j, c in enumerate(f.linear_coeffs):
            vals += c * samples[:, j]
        prod *= nu[(vals + f.constant) % p]
    return float(prod.mean()), float(prod.std(ddof=1) / math.sqrt(sample_budget))


def test_montecarlo_chunks_match_one_shot_draw(monkeypatch):
    sv = gysieve.build_enveloping_sieve(2000, 0.3, 3.0, [1, 5])
    quad = forms.system([[1, 0], [0, 1], [1, 1], [1, 2]], [0, 3, 0, 1])
    cases = [(chunk, seed, budget) for chunk in (7, 1000) for seed, budget in
             ((0, 2), (1, 999), (2, 12345))]
    cases += [(gysieve.MC_CHUNK, seed, budget) for seed, budget in ((3, 2**17 + 3), (4, 5000))]
    for chunk, seed, budget in cases:
        monkeypatch.setattr(gysieve, "MC_CHUNK", chunk)
        got = gysieve.linear_forms_check(sv, quad, sample_budget=budget, seed=seed)
        assert got.method == "montecarlo"
        e, se = _montecarlo_one_shot(sv, quad, budget, seed)
        assert (got.expectation.hex(), got.stderr.hex()) == (e.hex(), se.hex()), (chunk, seed, budget)



def test_linear_forms_check_refuses_a_budget_below_two():
    # a budget of 0 gave a NaN expectation and 1 a NaN stderr; the refusal
    # comes before any route is chosen, so exact-route systems refuse it too
    sv = gysieve.build_enveloping_sieve(2000, 0.3, 3.0, [1, 5])
    quad = forms.system([[1, 0], [0, 1], [1, 1], [1, 2]], [0, 3, 0, 1])
    pair = forms.system([[1, 0], [0, 1]])
    for system in (quad, pair):
        for budget in (1, 0, -3):
            with pytest.raises(ValueError, match="sample_budget must be at least 2"):
                gysieve.linear_forms_check(sv, system, sample_budget=budget)


@functools.lru_cache(maxsize=None)
def _small_sieve(n):
    return gysieve.build_enveloping_sieve(n, 0.3, 3.0, [1, 5])


def _nu_variant(nu, kind):
    """The built nu, all ones, a last entry != 1.0, or a last entry != 1.0 at
    len(nu) - 2 (the head is then all of nu)."""
    nu = nu.copy()
    if kind == "ones":
        nu[:] = 1.0
    elif kind == "last":
        nu[-1] = 0.75
    elif kind == "second-to-last":
        nu[-2] = 1.5
    return nu


@settings(max_examples=150, derandomize=True, deadline=None)
@given(st.data())
def test_montecarlo_kernel_matches_one_shot_draw(data):
    # the chunk buffers, the reduction by floor division and the gather from
    # nu's head give the one-shot draw's bits; coefficients and constants of
    # either sign up to the int64 limits make the form values wrap mod 2^64
    sv = _small_sieve(data.draw(st.sampled_from([50, 300])))
    p = sv.n_prime
    nu = _nu_variant(sv.nu, data.draw(st.sampled_from(["built", "ones", "last", "second-to-last"])))
    d = data.draw(st.integers(1, 3))
    t = data.draw(st.integers(d + 2, d + 3))            # rank <= d <= t - 2: Monte Carlo
    int64 = st.integers(-2**63, 2**63 - 1)
    coeff = st.one_of(st.sampled_from([0, 1, -1]), st.integers(-50, 50), st.integers(-2**62, -2**40), int64)
    const = st.one_of(st.integers(-3 * p, 3 * p), st.sampled_from([-2**63, 2**63 - 1, -1]), int64)
    rows = data.draw(st.lists(st.lists(coeff, min_size=d, max_size=d).filter(any), min_size=t, max_size=t))
    consts = data.draw(st.lists(const, min_size=t, max_size=t))
    chunk = data.draw(st.sampled_from([1, 7, gysieve.MC_CHUNK]))
    budget = data.draw(st.integers(2, 3 * chunk + 5))
    seed = data.draw(st.integers(0, 2**32 - 1))
    sieve = types.SimpleNamespace(n_prime=p, nu=nu)
    system = forms.system(rows, consts)
    with mock.patch.object(gysieve, "MC_CHUNK", chunk):
        got = gysieve.linear_forms_check(sieve, system, sample_budget=budget, seed=seed)
    assert got.method == "montecarlo"
    e, se = _montecarlo_one_shot(sieve, system, budget, seed)
    assert (got.expectation.hex(), got.stderr.hex()) == (e.hex(), se.hex())


def test_montecarlo_on_a_short_nu_raises_index_error():
    # a nu shorter than N' is read with numpy's index check, as nu[vals] was
    sv = _small_sieve(50)
    short = types.SimpleNamespace(n_prime=sv.n_prime, nu=sv.nu[: sv.n_prime // 2])
    with pytest.raises(IndexError):
        gysieve.linear_forms_check(short, forms.ap_system(4), sample_budget=1000)

def test_montecarlo_bit_identical_at_benchmark_size():
    # the sieve-gowers linear-forms-montecarlo op (AP4, N = 1e5, W = 30, C = 20):
    # nu is 1.0 past N + 1, so the kernel gathers from its first N + 2 entries
    ap4 = forms.ap_system(4)
    for seed, b in ((0, 1), (1, 7), (2, 29)):
        sv = gysieve.build_enveloping_sieve(10**5, 0.3, 5.0, [b], c_factor=20)
        assert len(gysieve._nu_gather_source(sv.nu, sv.n_prime)[0]) == 10**5 + 2
        got = gysieve.linear_forms_check(sv, ap4, seed=seed)
        assert got.method == "montecarlo"
        e, se = _montecarlo_one_shot(sv, ap4, 2 * 10**6, seed)
        assert (got.expectation.hex(), got.stderr.hex()) == (e.hex(), se.hex()), (seed, b)

def _dense_divisor_sum(chi, big_r, m_max):
    """D(m) for 0 <= m <= m_max, adding mu(d) chi(log d / log R) to every
    multiple of d over the whole dense table; the oracle of the progression
    kernel divisor_sum_core_array."""
    log_r = math.log(big_r)
    core = np.zeros(m_max + 1)
    core[1:] = float(chi(0.0))
    mobius = arith.build_tables(max(m_max, 2)).mobius
    for d in range(2, int(min(m_max, math.floor(big_r))) + 1):
        if mobius[d]:
            core[d::d] += int(mobius[d]) * float(chi(math.log(d) / log_r))
    return core


@settings(max_examples=150, derandomize=True, deadline=None)
@given(st.data())
def test_divisor_sum_kernels_on_the_progression_match_the_dense_table(data):
    # D, Lambda_{chi,R,a} and Lambda^sharp at W n + b, n <= n_max, read off the dense
    # table, for R below and above sqrt(W n_max + b)
    wp = arith.w_trick(W=data.draw(st.sampled_from([2, 6, 30, 210])))
    b = data.draw(st.sampled_from([r + k * wp.W for r in wp.residues for k in (0, 1, 3)]))
    n_max = data.draw(st.integers(0, 400))
    m = wp.W * np.arange(n_max + 1) + b
    root = math.sqrt(m[-1])
    big_r = max(1.5, root * data.draw(st.one_of(st.floats(0.2, 0.95), st.floats(1.05, 4.0))))
    name, chi = data.draw(st.sampled_from([("bump", gysieve.normalized_bump()), ("tent", gysieve.tent_taper(0.1)),
                                           ("sharp", gysieve.split_sharp_flat()[0])]))
    dense = _dense_divisor_sum(chi, big_r, m[-1])[m]
    got = gysieve.divisor_sum_core_array(chi, big_r, n_max, wp.W, b)
    assert got.tobytes() == dense.tobytes()
    if name == "sharp":
        want = -math.log(big_r) * dense
        assert gysieve.lambda_sharp_array(n_max, big_r, wp.W, b).tobytes() == want.tobytes()
    else:
        a = data.draw(st.sampled_from([1, 2]))
        want = math.log(big_r) * dense**a
        assert gysieve.gy_weight_array(chi, big_r, a, n_max, wp.W, b).tobytes() == want.tobytes()


def test_dense_divisor_sums_match_the_dense_loop():
    # W = 1, b = 0 is the dense table, D(0) = 0 included
    for chi, big_r, n_max in ((gysieve.tent_taper(0.1), 50.0, 4000), (gysieve.normalized_bump(), 317.0, 10**5),
                              (gysieve.split_sharp_flat()[0], 2.5, 30)):
        got = gysieve.divisor_sum_core_array(chi, big_r, n_max)
        assert got.tobytes() == _dense_divisor_sum(chi, big_r, n_max).tobytes()
    with pytest.raises(ValueError, match="b = 4 is not coprime to W = 6"):
        gysieve.divisor_sum_core_array(gysieve.normalized_bump(), 10.0, 100, 6, 4)


def test_correlation_check_slices_match_the_roll_loop():
    # prod[i] *= nu[(i + h) mod N'] over two slices: the products of the np.roll loop, in its order
    sv = gysieve.build_enveloping_sieve(2000, 0.3, 3.0, [1, 5])
    p = sv.n_prime
    for h_list in ([3, 9], [4, 4], [1, 5, 11], [0, -7, p + 2], [-3, 2 * p, 17, p - 1]):
        prod = np.ones(p)
        for h in h_list:
            prod *= np.roll(sv.nu, -int(h))
        lhs, _, _ = gysieve.correlation_check(sv, len(h_list), h_list)
        assert lhs.hex() == float(prod.mean()).hex(), h_list
