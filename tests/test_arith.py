import functools
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affprimes import arith


def test_prime_power_values(tables_1e6, spf_sieve):
    t = tables_1e6
    assert t.von_mangoldt[8] == pytest.approx(math.log(2))
    assert t.von_mangoldt[7] == pytest.approx(math.log(7))
    assert t.von_mangoldt[6] == 0.0
    assert t.von_mangoldt_prime[8] == 0.0
    assert t.von_mangoldt_prime[7] == pytest.approx(math.log(7))
    assert t.mobius[30] == -1
    assert t.mobius[12] == 0
    assert t.liouville[12] == -1
    spf = spf_sieve(100)
    assert spf[91] == 7
    assert spf[97] == 97


def test_mobius_liouville_multiplicative(tables_1e6, rng):
    t = tables_1e6
    checked = 0
    while checked < 10**4:
        m = int(rng.integers(2, 900))
        n = int(rng.integers(2, 1000))
        if math.gcd(m, n) != 1:
            continue
        assert t.mobius[m * n] == t.mobius[m] * t.mobius[n]
        assert t.liouville[m * n] == t.liouville[m] * t.liouville[n]
        checked += 1
    # liouville is completely multiplicative, coprimality not needed
    for _ in range(2000):
        m = int(rng.integers(2, 900))
        n = int(rng.integers(2, 1000))
        assert t.liouville[m * n] == t.liouville[m] * t.liouville[n]


def test_chebyshev_level(tables_1e6):
    for n in (10**5, 10**6):
        avg = tables_1e6.von_mangoldt[: n + 1].sum() / n
        assert 0.9 <= avg <= 1.1


def test_divisor_identity(tables_1e6):
    # sum_{d|n} mu(d) log(n/d) = Lambda(n)
    t = tables_1e6
    for n in range(2, 10**4 + 1):
        s = sum(sign * math.log(n / d) for d, sign in arith.squarefree_divisors(n))
        assert abs(s - t.von_mangoldt[n]) <= 1e-9


def test_lambda_vs_lambda_prime_support(tables_1e6):
    t = tables_1e6
    differing = int(np.count_nonzero(t.von_mangoldt != t.von_mangoldt_prime))
    assert differing <= 3 * math.isqrt(10**6)
    # they differ exactly on proper prime powers
    diff_idx = np.nonzero(t.von_mangoldt != t.von_mangoldt_prime)[0]
    for n in diff_idx[:50]:
        f = arith.factorize(int(n))
        assert len(f) == 1 and list(f.values())[0] >= 2


def test_factorize(tables_1e6, spf_factor):
    assert arith.factorize(1) == {} and arith.factorize(-12) == {2: 2, 3: 1}
    assert arith.factorize(2**20 * 999983) == {2: 20, 999983: 1}
    for n in range(2, 3000):
        f = arith.factorize(n)
        assert math.prod(p**e for p, e in f.items()) == n
        assert f == spf_factor(n) and list(f) == list(spf_factor(n))
        assert all(tables_1e6.is_prime[p] for p in f)
    assert arith._next_prime(89) == 97 and arith._prev_prime(97) == 89


def test_factorize_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rng = np.random.default_rng(12)
    ns = [0, 1, -1, 2, -12, 2**31 - 1, 999983 * 999979, 2**20 * 3**7]
    ns += [int(x) for x in rng.integers(-10**9, 10**9, size=300)]
    ns += [int(x) for x in rng.integers(-10**18, 10**18, size=200)]
    for n in ns:
        want = {} if abs(n) < 2 else {int(p): e for p, e in sympy.factorint(abs(n)).items()}
        got = arith.factorize(n)
        assert got == want and list(got) == sorted(got)
    # Mersenne primes, whose factorizations are known (sympy takes 0.6 s on the
    # product); trial division would take ~1e9 steps on 2^61 - 1
    m31, m61 = 2**31 - 1, 2**61 - 1
    assert arith.factorize(m61) == {m61: 1} and arith.factorize(m31 * m61) == {m31: 1, m61: 1}
    assert arith.factorize(1000003**3 * 7) == {7: 1, 1000003: 3}
    assert arith.is_prime(2**89 - 1) and not arith.is_prime(2**89 + 1)


def test_w_trick():
    w = arith.w_trick(w=5)
    assert w.W == 30 and w.residues == (1, 7, 11, 13, 17, 19, 23, 29)
    assert arith.w_trick(w=2).W == 2 and arith.w_trick(w=2).residues == (1,)
    w7 = arith.w_trick(w=7)
    assert w7.W == 210 and w7.phi_W == 48
    assert arith.w_trick(W=30).W == 30
    with pytest.raises(ValueError):
        arith.w_trick(W=20)        # not a primorial


def test_w_trick_residue_list_is_guarded(monkeypatch):
    # the coprime residues are a Python loop over 1..W: W passes the table guard first,
    # and the primorial loop stops once W is past it (a huge w fails here, not after 1e9 steps)
    monkeypatch.setattr(arith, "TABLE_GUARD", 100)
    assert arith.w_trick(w=5).residues == (1, 7, 11, 13, 17, 19, 23, 29)
    steps = []
    next_prime = arith._next_prime

    def counted(p):
        steps.append(p)
        assert len(steps) < 10, "the primorial loop ran past the guard"
        return next_prime(p)

    monkeypatch.setattr(arith, "_next_prime", counted)
    for kwargs in ({"w": 7}, {"W": 210}, {"w": 10**9}):
        steps.clear()
        with pytest.raises(arith.ResourceGuard, match="table of size 210 exceeds the 100 guard"):
            arith.w_trick(**kwargs)
        assert steps == [2, 3, 5, 7]


def test_lambda_bw_values():
    w = arith.w_trick(w=5)
    assert arith.lambda_bw(1, 7, w) == pytest.approx((8 / 30) * math.log(37))
    # 121 = 11^2: the primed variant vanishes
    assert arith.lambda_bw(4, 1, w, primed=True) == 0.0
    assert arith.lambda_bw(4, 1, w) == pytest.approx((8 / 30) * math.log(11))
    with pytest.raises(ValueError):
        arith.lambda_bw(1, 6, w)


def test_lambda_bw_mean_value():
    # E_{n <= 1e6} Lambda_{b,W}(n) = 1 +- 0.05 for W = 30, every coprime b
    w = arith.w_trick(w=5)
    for b in w.residues:
        mean = float(arith.lambda_bw_array(10**6, b, w).mean())
        assert abs(mean - 1.0) <= 0.05, (b, mean)


def test_fields_built_on_first_read():
    assert arith.FIELDS == ("von_mangoldt", "von_mangoldt_prime", "mobius", "liouville")
    for name in arith.FIELDS:
        t = arith.build_tables(1000)
        assert not set(arith.FIELDS) & set(vars(t))
        getattr(t, name)
        assert set(arith.FIELDS) & set(vars(t)) == {name}
        assert getattr(t, name) is getattr(t, name)        # cached


def test_field_bytes_independent_of_read_order(spf_sieve):
    ref = arith.build_tables(2000)
    fac = [{}, {}] + [arith.factorize(n) for n in range(2, 2001)]
    assert spf_sieve(2000).tolist() == [0, 1] + [min(f) for f in fac[2:]]
    assert ref.mobius.tolist() == [0] + [0 if any(e > 1 for e in f.values()) else (-1) ** len(f) for f in fac[1:]]
    assert ref.liouville.tolist() == [0] + [(-1) ** sum(f.values()) for f in fac[1:]]
    lam = [math.log(min(f)) if len(f) == 1 else 0.0 for f in fac]
    assert ref.von_mangoldt.tolist() == pytest.approx(lam, rel=1e-15, abs=0)
    lam1 = [math.log(min(f)) if list(f.values()) == [1] else 0.0 for f in fac]
    assert ref.von_mangoldt_prime.tolist() == pytest.approx(lam1, rel=1e-15, abs=0)
    want = {f: (getattr(ref, f).dtype.str, getattr(ref, f).tobytes()) for f in arith.FIELDS}
    for order in itertools.permutations(arith.FIELDS):
        t = arith.build_tables(2000)
        got = {f: (getattr(t, f).dtype.str, getattr(t, f).tobytes()) for f in order}
        assert got == want, order


_ORACLE_MAX = 20000


@functools.cache
def _trial_division_mu_lambda():
    """mu(n) and lambda(n) for n <= _ORACLE_MAX (0 at n = 0), each n factored by trial division."""
    mu, lio = [0], [0]
    for n in range(1, _ORACLE_MAX + 1):
        exps, p = [], 2
        while p * p <= n:
            e = 0
            while n % p == 0:
                n, e = n // p, e + 1
            exps += [e] if e else []
            p += 1
        exps += [1] if n > 1 else []
        mu.append(0 if any(e > 1 for e in exps) else (-1) ** len(exps))
        lio.append((-1) ** sum(exps))
    return np.array(mu, dtype=np.int8), np.array(lio, dtype=np.int8)


def _check_mu_lambda(n_max):
    t = arith.build_tables(n_max)
    mu, lio = _trial_division_mu_lambda()
    assert t.mobius.dtype == t.liouville.dtype == np.int8
    assert t.mobius.tobytes() == mu[: n_max + 1].tobytes(), n_max
    assert t.liouville.tobytes() == lio[: n_max + 1].tobytes(), n_max


def test_mobius_liouville_match_trial_division_up_to_200():
    for n_max in range(2, 201):
        _check_mu_lambda(n_max)


_SQUARES = [p * p + d for p in range(2, 142) if arith.is_prime(p) for d in (-1, 0, 1)]


@settings(max_examples=150, derandomize=True, deadline=None)
@given(st.one_of(st.integers(2, _ORACLE_MAX), st.sampled_from(_SQUARES)))
def test_mobius_liouville_match_trial_division(n_max):
    # at p^2 the prime p changes sides: below, it divides n at most once; from p^2 on, it is sieved
    _check_mu_lambda(n_max)


def _brute_squarefree_divisors(n, mobius):
    return [(d, int(mobius[d])) for d in range(1, n + 1) if n % d == 0 and mobius[d]]


def test_squarefree_divisors(tables_1e6):
    rng = np.random.default_rng(13)
    for n in list(range(1, 300)) + rng.integers(300, 10**4 + 1, 300).tolist():
        assert arith.squarefree_divisors(n) == _brute_squarefree_divisors(n, tables_1e6.mobius), n
    for bad in (0, -1, -30):
        with pytest.raises(ValueError):
            arith.squarefree_divisors(bad)


def test_squarefree_divisors_match_sympy():
    sympy = pytest.importorskip("sympy")
    rng = np.random.default_rng(14)
    ns = [2**61 - 1, 30030 * 999983, 2**20 * 3**7 * 5, 10**18]
    ns += rng.integers(10**6, 10**18, 200).tolist()    # beyond any table
    for n in ns:
        ps = sorted(int(p) for p in sympy.factorint(n))
        want = sorted((math.prod(sub), (-1) ** len(sub))
                      for k in range(len(ps) + 1) for sub in itertools.combinations(ps, k))
        assert arith.squarefree_divisors(n) == want, n


def test_guards():
    with pytest.raises(ValueError):
        arith.build_tables(1)
    with pytest.raises(arith.ResourceGuard):
        arith.build_tables(2**31 + 1)
    with pytest.raises(arith.ResourceGuard):
        arith.build_tables(arith.TABLE_GUARD + 1)     # raised before the sieve allocates


def _dense_sieve(m_max):
    """is_prime for 0..m_max by the plain dense sieve; the oracle of arith.prime_sieve."""
    is_p = np.ones(m_max + 1, dtype=bool)
    is_p[:2] = False
    for p in range(2, math.isqrt(m_max) + 1):
        if is_p[p]:
            is_p[p * p:: p] = False
    return is_p


def _dense_von_mangoldt(m_max, primed):
    """Lambda (Lambda' when primed) for 0..m_max over the whole dense table; the
    oracle of arith.von_mangoldt_on."""
    primes = np.flatnonzero(_dense_sieve(m_max))
    vm = np.zeros(m_max + 1)
    vm[primes] = np.log(primes.astype(np.float64))
    for p in [] if primed else primes[primes <= math.isqrt(m_max)].tolist():
        pk = p * p
        while pk <= m_max:
            vm[pk] = math.log(p)
            pk *= p
    return vm


@pytest.mark.parametrize("m_max", [0, 1, 2, 3, 4, 5, 48, 49, 50, 10**6 + 3])
def test_dense_tables_match_the_plain_sieve(m_max):
    assert arith.prime_sieve(m_max).tobytes() == _dense_sieve(m_max).tobytes()
    if m_max >= 2:
        t = arith.build_tables(m_max)
        assert t.von_mangoldt.tobytes() == _dense_von_mangoldt(m_max, False).tobytes()
        assert t.von_mangoldt_prime.tobytes() == _dense_von_mangoldt(m_max, True).tobytes()


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.data())
def test_progression_kernels_match_the_dense_tables(data):
    # is_prime, Lambda and Lambda' at W n + b, n_lo <= n <= n_hi, read off the dense tables
    wp = arith.w_trick(W=data.draw(st.sampled_from([2, 6, 30, 210])))
    b = data.draw(st.sampled_from([r + k * wp.W for r in wp.residues for k in (0, 1, 3)]))
    n_lo = data.draw(st.integers(0, 500))
    n_hi = data.draw(st.integers(n_lo, n_lo + 700))
    primed = data.draw(st.booleans())
    m = wp.W * np.arange(n_lo, n_hi + 1) + b
    is_p = arith.prime_sieve(n_hi, wp.W, b, n_lo)
    assert is_p.tobytes() == _dense_sieve(m[-1])[m].tobytes()
    lam = _dense_von_mangoldt(m[-1], primed)[m]
    assert arith.von_mangoldt_on(is_p, wp.W, b, n_lo, primed).tobytes() == lam.tobytes()
    got = arith.lambda_bw_array(n_hi, b, wp, primed, n_lo)
    assert got.tobytes() == (wp.normalizer * lam).tobytes()


def test_progression_kernels_refuse_a_residue_sharing_a_prime_with_w():
    with pytest.raises(ValueError, match="b = 9 is not coprime to W = 6"):
        arith.prime_sieve(100, 6, 9)
    with pytest.raises(ValueError, match="not coprime"):
        arith.lambda_bw_array(100, 10, arith.w_trick(w=5))


def _mask_route_mu_lambda(n_max):
    """mobius and liouville as they were built before the sign array: the same
    small-prime passes, then a boolean mask of the multiples of the large
    primes and a masked flip (the oracle of the one multiply)."""
    t = arith.build_tables(n_max)
    mask = np.zeros(n_max + 1, dtype=bool)
    large = t.primes[np.searchsorted(t.primes, math.isqrt(n_max), side="right"):]
    ks = np.arange(1, n_max // int(large[0]) + 1)
    for k, c in zip(ks.tolist(), np.searchsorted(large, n_max // ks, side="right").tolist()):
        mask[k * large[:c]] = True
    mob = np.ones(n_max + 1, dtype=np.int8)
    lio = np.ones(n_max + 1, dtype=np.int8)
    for p in arith._sieving_primes(n_max):
        mob[p::p] *= -1
        mob[p * p:: p * p] = 0
        pk = p
        while pk <= n_max:
            lio[pk::pk] *= -1
            pk *= p
    mob[mask] *= -1
    lio[mask] *= -1
    mob[0] = lio[0] = 0
    return mob, lio


def _check_against_mask_route(n_max):
    t = arith.build_tables(n_max)
    mob, lio = _mask_route_mu_lambda(n_max)
    assert t.mobius.dtype == t.liouville.dtype == np.int8
    assert t.mobius.tobytes() == mob.tobytes(), n_max
    assert t.liouville.tobytes() == lio.tobytes(), n_max


def test_sign_array_matches_mask_route_up_to_300():
    for n_max in range(2, 301):
        _check_against_mask_route(n_max)


@settings(max_examples=120, derandomize=True, deadline=None)
@given(st.one_of(st.sampled_from([p * p + d for p in range(2, 1000) if arith.is_prime(p) for d in (-1, 1)]),
                 st.integers(301, 10**6)))
def test_sign_array_matches_mask_route(n_max):
    # at p^2 +- 1 the prime p is on either side of sqrt(n_max): flipped by the sign array, or sieved
    _check_against_mask_route(n_max)
