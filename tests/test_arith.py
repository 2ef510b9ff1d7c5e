import itertools
import math

import numpy as np
import pytest

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


def test_lambda_bw_values(tables_1e6):
    w = arith.w_trick(w=5)
    assert arith.lambda_bw(1, 7, w, tables_1e6) == pytest.approx((8 / 30) * math.log(37))
    # 121 = 11^2: the primed variant vanishes
    assert arith.lambda_bw(4, 1, w, tables_1e6, primed=True) == 0.0
    assert arith.lambda_bw(4, 1, w, tables_1e6) == pytest.approx((8 / 30) * math.log(11))
    with pytest.raises(ValueError):
        arith.lambda_bw(1, 6, w, tables_1e6)


@pytest.mark.slow
def test_lambda_bw_mean_value():
    # E_{n <= 1e6} Lambda_{b,W}(n) = 1 +- 0.05 for W = 30, every coprime b
    w = arith.w_trick(w=5)
    tables = arith.build_tables(30 * 10**6 + 30)
    for b in w.residues:
        mean = float(arith.lambda_bw_array(10**6, b, w, tables).mean())
        assert abs(mean - 1.0) <= 0.05, (b, mean)


def test_cache_roundtrip(tmp_path, tables_1e6):
    small = arith.build_tables(10**4)
    path = tmp_path / "tables.bin"
    small.save(path)
    loaded = arith.ArithTables.load(path)
    assert loaded.n_max == small.n_max
    for name in arith.FIELDS:
        a, b = getattr(small, name), getattr(loaded, name)
        assert (a == b).all()
    # bit-exact across a rebuild
    rebuilt = arith.build_tables(10**4)
    assert (rebuilt.von_mangoldt == small.von_mangoldt).all()
    assert (rebuilt.mobius == small.mobius).all()


def test_fields_built_on_first_read():
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


def test_load_builds_absent_fields(tmp_path):
    full = arith.build_tables(3000)
    path = tmp_path / "partial.bin"
    arith._write_records(path, 3000, {"is_prime": full.is_prime.view(np.uint8), "mobius": full.mobius})
    loaded = arith.ArithTables.load(path)
    assert set(arith.FIELDS) & set(vars(loaded)) == {"mobius"}
    for name in arith.FIELDS:
        assert getattr(loaded, name).tobytes() == getattr(full, name).tobytes()
    arith._write_records(path, 3000, {"is_prime": full.is_prime.view(np.uint8), "sigma": full.mobius})
    with pytest.raises(ValueError, match="sigma"):
        arith.ArithTables.load(path)


def test_save_writes_four_fields_and_load_rejects_spf(tmp_path, spf_sieve):
    assert arith.FIELDS == ("von_mangoldt", "von_mangoldt_prime", "mobius", "liouville")
    t = arith.build_tables(3000)
    path = tmp_path / "tables.bin"
    t.save(path)
    n_max, records = arith._read_records(path)
    assert n_max == 3000 and [name for name, _ in records] == ["is_prime", *arith.FIELDS]
    # a file written when spf was a field is rejected, naming the field
    old = {"is_prime": t.is_prime.view(np.uint8), "spf": spf_sieve(3000), "mobius": t.mobius}
    arith._write_records(path, 3000, old)
    with pytest.raises(ValueError, match="unknown field 'spf'"):
        arith.ArithTables.load(path)


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


def test_truncated_cache_rejected(tmp_path):
    path = tmp_path / "tables.bin"
    arith.build_tables(1000).save(path)
    data = path.read_bytes()
    path.write_bytes(data[:-300])
    with pytest.raises(ValueError, match="truncated"):
        arith.ArithTables.load(path)
    # a well-formed file whose arrays disagree with n_max
    short = arith.build_tables(1000)
    short.liouville = short.liouville[:701]
    short.save(path)
    with pytest.raises(ValueError, match="liouville"):
        arith.ArithTables.load(path)
    # single-array file cut by a whole number of items
    arr = np.arange(50, dtype=np.float64)
    arith.save_array(path, "nu", arr, 50)
    name, back, n_max = arith.load_array(path)
    assert name == "nu" and n_max == 50 and (back == arr).all()
    path.write_bytes(path.read_bytes()[:-3 * arr.itemsize])
    with pytest.raises(ValueError, match="truncated"):
        arith.load_array(path)


def test_guards():
    with pytest.raises(ValueError):
        arith.build_tables(1)
    with pytest.raises(arith.ResourceGuard):
        arith.build_tables(2**31 + 1)
    with pytest.raises(arith.ResourceGuard):
        arith.build_tables(arith.TABLE_GUARD + 1)     # raised before the sieve allocates
