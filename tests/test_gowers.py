import itertools
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affprimes import arith, gowers


def rand_pm1(rng, shape):
    return rng.choice([-1.0, 1.0], size=shape)


def rand_complex(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def test_box_norm_single_axis_is_mean(rng):
    f = rng.normal(size=9)
    assert gowers.box_norm(f, "naive").norm == pytest.approx(abs(f.mean()))
    assert gowers.box_norm(np.ones((5, 4))).norm == pytest.approx(1.0)


def test_box_norm_methods_agree(rng):
    for shape in [(8, 8), (4, 5), (3, 3, 3)]:
        f = rand_complex(rng, shape)
        a = gowers.box_norm(f, "naive")
        b = gowers.box_norm(f, "direct")
        assert a.norm == pytest.approx(b.norm, rel=1e-9)
        assert a.raw_power_average == pytest.approx(b.raw_power_average, rel=1e-9)


def test_cyclic_methods_agree(rng):
    for n in (16, 31, 64):
        f = rand_complex(rng, n)
        naive = gowers.gowers_norm_cyclic(f, 1, "naive").norm
        assert gowers.gowers_norm_cyclic(f, 1, "recursive").norm == pytest.approx(
            naive, rel=1e-9
        )
    for n in (8, 16, 32):
        f = rand_complex(rng, n)
        naive = gowers.gowers_norm_cyclic(f, 2, "naive").norm
        assert gowers.gowers_norm_cyclic(f, 2, "recursive").norm == pytest.approx(
            naive, rel=1e-9
        )


def test_delta_function_closed_form():
    for s, n in [(1, 5), (1, 8), (1, 16), (2, 5), (2, 8), (2, 16)]:
        f = np.zeros(n)
        f[0] = 1.0
        val = gowers.gowers_norm_cyclic(f, s).norm
        assert val == pytest.approx(n ** (-(s + 2) / 2 ** (s + 1)), rel=1e-12)


def test_constant_and_character(rng):
    n = 24
    assert gowers.gowers_norm_cyclic(np.ones(n), 1).norm == pytest.approx(1.0)
    xi = 5
    f = np.exp(2j * np.pi * xi * np.arange(n) / n)
    assert gowers.gowers_norm_cyclic(f, 1).norm == pytest.approx(1.0)
    assert gowers.gowers_norm_cyclic(f, 2).norm == pytest.approx(1.0)


def test_phase_invariance(rng):
    n = 32
    f = rand_complex(rng, n)
    x = np.arange(n)
    for s in (1, 2):
        base = gowers.gowers_norm_cyclic(f, s).norm
        # polynomial phases of degree <= s leave the norm unchanged
        for coeffs in itertools.product(range(3), repeat=s + 1):
            phase = sum(c * x**k for k, c in enumerate(coeffs)) % n
            g = f * np.exp(2j * np.pi * phase / n)
            assert gowers.gowers_norm_cyclic(g, s).norm == pytest.approx(
                base, abs=1e-9
            )


def test_box_modulation_insensitivity(rng):
    # modulations by phases of proper subsets of the variables
    f = rand_complex(rng, (8, 8, 8))
    base = gowers.box_norm(f).norm
    ph1 = rng.normal(size=8)
    ph2 = rng.normal(size=(8, 8))
    g = (
        f
        * np.exp(2j * np.pi * ph1)[:, None, None]
        * np.exp(2j * np.pi * ph2)[None, :, :]
    )
    assert gowers.box_norm(g).norm == pytest.approx(base, abs=1e-9)


def test_positivity_of_raw_averages(rng):
    for _ in range(25):
        f = rng.normal(size=(6, 6))
        res = gowers.box_norm(f)
        assert res.raw_power_average >= -1e-9 * max(1.0, np.abs(f).max() ** 4)
    for _ in range(25):
        f = rng.normal(size=20)
        res = gowers.gowers_norm_cyclic(f, 1)
        assert res.raw_power_average >= -1e-9


def test_triangle_inequality(rng):
    for s in (1, 2):
        for _ in range(100):
            n = int(rng.integers(4, 33))
            f = rand_complex(rng, n)
            g = rand_complex(rng, n)
            nf = gowers.gowers_norm_cyclic(f, s).norm
            ng = gowers.gowers_norm_cyclic(g, s).norm
            nfg = gowers.gowers_norm_cyclic(f + g, s).norm
            assert nfg <= nf + ng + 1e-9


def test_u2_below_u3(rng):
    for _ in range(50):
        n = int(rng.integers(4, 33))
        f = rand_complex(rng, n)
        u2 = gowers.gowers_norm_cyclic(f, 1).norm
        u3 = gowers.gowers_norm_cyclic(f, 2).norm
        assert u2 <= u3 + 1e-9


def test_local_norm_basics(rng):
    assert gowers.gowers_norm_local(np.ones(40), 1).norm == pytest.approx(1.0)
    # naive vs embedded route
    for s, n in [(1, 8), (2, 6)]:
        f = rand_complex(rng, n)
        a = gowers.gowers_norm_local(f, s, "naive").norm
        b = gowers.gowers_norm_local(f, s, "embed").norm
        assert a == pytest.approx(b, rel=1e-9)
    with pytest.raises(ValueError):
        gowers.gowers_norm_local(np.zeros(0), 1)


def test_local_norm_translation_invariance(rng):
    # the local norm is intrinsic: a translate of the interval has equal norm
    f = rand_complex(rng, 30)
    a = gowers.gowers_norm_local(f, 1).norm
    # values are attached to positions [a, a+N-1]; the array is identical
    assert gowers.gowers_norm_local(f.copy(), 1).norm == pytest.approx(a)


def test_embedding_ratio_independent_of_f(rng):
    # || f 1_A ||_{U(Z_M)} / || f ||_{U(A)} is a constant depending only on
    # the geometry (comparability of the interval and cyclic norms)
    n, m = 20, 64
    ratios = []
    for _ in range(4):
        f = rand_complex(rng, n)
        fe = np.zeros(m, dtype=complex)
        fe[:n] = f
        cyc = gowers.gowers_norm_cyclic(fe, 1).norm
        loc = gowers.gowers_norm_local(f, 1, "naive").norm
        ratios.append(cyc / loc)
    assert max(ratios) == pytest.approx(min(ratios), rel=1e-9)


def test_gcs_battery(rng):
    for _ in range(200):
        n = 16
        fam = [rand_pm1(rng, n) for _ in range(4)]
        lhs, rhs, ok = gowers.gcs_check(fam)
        assert ok
    f = rng.normal(size=12)
    lhs, rhs, ok = gowers.gcs_check([f] * 4)
    assert ok and lhs == pytest.approx(rhs, rel=1e-9)
    z = [np.zeros(8)] + [rand_pm1(rng, 8) for _ in range(3)]
    lhs, rhs, ok = gowers.gcs_check(z)
    assert lhs == 0 and ok


def test_gcs_checks_refuse_a_family_of_the_wrong_size(rng):
    # zip used to drop the extra functions: 5 functions reported "holds" with
    # 4 on the left and 5 norms on the right; 3 failed as "s must be >= 1"
    for size, want in [(3, 4), (5, 4), (6, 4), (9, 8), (0, 4)]:
        with pytest.raises(ValueError, match=f"has {want} functions, got {size}"):
            gowers.gcs_check([rand_pm1(rng, 8) for _ in range(size)])
    with pytest.raises(ValueError, match="has 8 functions, got 4"):
        gowers.gcs_check([rand_pm1(rng, 8) for _ in range(4)], s=2)
    with pytest.raises(ValueError, match="has 4 functions, got 3"):
        gowers.gcs_check({(0, 0): np.ones(4), (0, 1): np.ones(4), (1, 0): np.ones(4)})


def _box_gcs_sides(fam):
    """|E_{x0,x1} prod_omega C^{|omega|} f_omega(x^(omega))| and prod_omega ||f_omega||_box:
    the two sides of the box Gowers-Cauchy-Schwarz inequality."""
    return abs(gowers._box_average(fam, {})), np.prod([gowers.box_norm(f).norm for f in fam])


def test_gcs_box(rng):
    for _ in range(50):
        fam = [rand_complex(rng, (5, 5)) for _ in range(4)]
        lhs, rhs = _box_gcs_sides(fam)
        assert lhs <= rhs + 1e-9


def test_second_gcs(rng):
    for _ in range(100):
        n1, n2 = 8, 8
        fb = {
            frozenset(): np.array(rng.normal()),
            frozenset([0]): rand_complex(rng, n1),
            frozenset([1]): rand_complex(rng, n2),
            frozenset([0, 1]): rand_complex(rng, (n1, n2)),
        }
        lhs, rhs, ok = gowers.second_gcs_check(fb)
        assert ok


def test_weighted_box_norm(rng):
    f = rng.normal(size=(5, 5))
    plain = gowers.box_norm(f).norm
    assert gowers.weighted_box_norm(f, {}).norm == pytest.approx(plain, rel=1e-9)
    ones = {
        frozenset(): np.array(1.0),
        frozenset([0]): np.ones(5),
        frozenset([1]): np.ones(5),
    }
    assert gowers.weighted_box_norm(f, ones).norm == pytest.approx(plain, rel=1e-9)


def test_weighted_box_norm_rejects_foreign_keys():
    # a key that is not a proper subset of the axes used to be dropped silently,
    # so {2} on a (3, 4) array gave exactly box_norm(g)
    g = np.arange(12.0).reshape(3, 4)
    for key in ({2}, {0, 1}, {1, 3}):
        with pytest.raises(ValueError, match="proper subsets"):
            gowers.weighted_box_norm(g, {frozenset(key): np.full(4, 5.0)})
    plain = gowers.box_norm(g).norm
    assert gowers.weighted_box_norm(g, {frozenset({1}): np.full(4, 5.0)}).norm > plain


def test_weighted_nu_self_consistency(rng):
    weights = {
        frozenset(): np.array(1.0),
        frozenset([0]): 0.5 + rng.random(6),
        frozenset([1]): 0.5 + rng.random(6),
    }
    nub = 0.5 + rng.random((6, 6))
    # ||nu_B||_{box(nu)} by the general definition and by the direct display
    general = gowers.weighted_box_norm(nub, weights).norm
    direct = _direct_display_norm(nub, weights)
    assert general == pytest.approx(direct, rel=0, abs=1e-12 * max(1.0, direct))


def _direct_display_norm(nub, weights):
    """||nu_B||_{box(nu)} from the direct display E_{x0,x1} prod_{C subseteq B}
    prod_{omega_C} nu_C(x_C^(omega_C)), with nu_B among the weights and no box function."""
    k = np.ndim(nub)
    raw = _brute_box_average([], {**weights, frozenset(range(k)): nub}, np.shape(nub))
    return float(np.real(raw)) ** (1.0 / 2**k)


def _brute_box_average(fs, nus, sizes):
    """E_{x0,x1} prod_omega C^{|omega|} f_omega(x^(omega)) prod_C prod_{omega_C} nu_C, by loops."""
    k = len(sizes)
    omegas = list(itertools.product((0, 1), repeat=k))
    total = 0.0
    for x0 in itertools.product(*map(range, sizes)):
        for x1 in itertools.product(*map(range, sizes)):
            term = 1.0
            for f, omega in zip(fs, omegas):
                v = f[tuple(x1[i] if o else x0[i] for i, o in enumerate(omega))]
                term *= np.conj(v) if sum(omega) % 2 else v
            for c, nu in nus.items():
                for omega_c in itertools.product((0, 1), repeat=len(c)):
                    term *= nu[tuple(x1[a] if o else x0[a] for a, o in zip(sorted(c), omega_c))]
            total += term
    return total / np.prod([s * s for s in sizes])


def _random_weights(rng, sizes):
    """Non-constant positive weights nu_C for every proper subset C of the axes."""
    k = len(sizes)
    return {
        frozenset(c): 0.2 + rng.random([sizes[a] for a in c])
        for r in range(k)
        for c in itertools.combinations(range(k), r)
    }


def test_box_kernel_matches_brute_force():
    # a local generator leaves the session rng stream of the other tests unchanged
    rng = np.random.default_rng(11)
    for sizes in [(5,), (3, 4), (2, 3, 2)]:
        k = len(sizes)
        f = rand_complex(rng, sizes)
        raw = _brute_box_average([f] * 2**k, {}, sizes)
        assert gowers.box_norm(f).raw_power_average == pytest.approx(raw.real, rel=1e-9)
        fam = [rand_complex(rng, sizes) for _ in range(2**k)]
        lhs, rhs = _box_gcs_sides(fam)
        assert lhs == pytest.approx(abs(_brute_box_average(fam, {}, sizes)), rel=1e-9)
        norms = [_brute_box_average([g] * 2**k, {}, sizes).real ** (1 / 2**k) for g in fam]
        assert rhs == pytest.approx(np.prod(norms), rel=1e-9) and lhs <= rhs + 1e-9
        nus = _random_weights(rng, sizes)
        raw = _brute_box_average([f] * 2**k, nus, sizes)
        assert abs(raw.imag) <= 1e-9 * abs(raw)
        res = gowers.weighted_box_norm(f, nus)
        assert res.raw_power_average == pytest.approx(raw.real, rel=1e-9)


def test_weighted_gvn_three_axes():
    # each box norm over X_B takes nu_C, C a proper subset of B, relabelled to
    # positions in sorted(B): for B = {1, 2}, nu_{1} acts on axis 0 of nu_B
    rng = np.random.default_rng(12)
    nu = _random_weights(rng, (4, 4, 4))
    nu[frozenset(range(3))] = 0.2 + rng.random((4, 4, 4))
    f = {b: (rng.random(np.shape(w)) * 2 - 1) * w for b, w in nu.items()}
    e, n0, n1, n2 = (nu[frozenset(c)] for c in [(), (0,), (1,), (2,)])
    pairs = {
        (0, 1): {frozenset(): e, frozenset([0]): n0, frozenset([1]): n1},
        (0, 2): {frozenset(): e, frozenset([0]): n0, frozenset([1]): n2},
        (1, 2): {frozenset(): e, frozenset([0]): n1, frozenset([1]): n2},
    }
    full = frozenset(range(3))
    expected = gowers.weighted_box_norm(f[full], {c: w for c, w in nu.items() if c < full}).norm
    for b, weights in pairs.items():
        expected *= gowers.weighted_box_norm(nu[frozenset(b)], weights).norm ** 0.5
    for a in range(3):
        expected *= gowers.weighted_box_norm(nu[frozenset([a])], {frozenset(): e}).norm ** 0.25
    lhs, rhs, ok = gowers.weighted_gvn_check(f, nu)
    assert rhs == pytest.approx(expected, rel=1e-12) and ok
    general = gowers.weighted_box_norm(nu[frozenset([1, 2])], gowers._relabel(nu, frozenset([1, 2]))).norm
    direct = _direct_display_norm(nu[frozenset([1, 2])], pairs[(1, 2)])
    assert general == pytest.approx(direct, rel=0, abs=1e-12 * max(1.0, direct))
    assert general == pytest.approx(
        gowers.weighted_box_norm(nu[frozenset([1, 2])], pairs[(1, 2)]).norm, rel=1e-12
    )


def test_weighted_gvn_inequality(rng):
    for _ in range(60):
        nu = {
            frozenset(): np.array(1.0),
            frozenset([0]): 0.2 + rng.random(6),
            frozenset([1]): 0.2 + rng.random(6),
            frozenset([0, 1]): 0.2 + rng.random((6, 6)),
        }
        f = {
            b: (rng.random(np.shape(w)) * 2 - 1) * w for b, w in nu.items()
        }
        lhs, rhs, ok = gowers.weighted_gvn_check(f, nu)
        assert ok, (lhs, rhs)


def test_work_guards():
    with pytest.raises(ValueError):
        gowers.gowers_norm_cyclic(np.ones(10**4), 2, "naive")


def test_cyclic_route_and_order_refusals():
    # "fourier" was a second name for the recursive kernel at s = 1; a caller
    # that still passes it is refused by name at every s, not sent elsewhere
    f = np.exp(2j * np.pi * 0.37 * np.arange(16))
    for s in (1, 2):
        with pytest.raises(ValueError, match="unknown method 'fourier'"):
            gowers.gowers_norm_cyclic(f, s, "fourier")
    for method in ("naive", "recursive"):
        with pytest.raises(ValueError, match="s must be >= 1"):
            gowers.gowers_norm_cyclic(f, 0, method)


# ---------------------------------------------------------------------------
# the row-block kernel against the per-h loop it replaced


def _per_h_cyclic_raw(f, s):
    """The per-h loop the row-block kernel replaced: the bit-exact oracle."""
    n = len(f)
    if s == 1:
        fh = np.fft.fft(f) / n
        return float(np.sum(np.abs(fh) ** 4))
    total = 0.0
    for h in range(n):
        g = f * np.conj(np.roll(f, -h))
        total += np.real(_per_h_cyclic_raw(g, s - 1))
    return total / n


def _per_h_local_raw(f, s):
    n = len(f)
    fe = np.zeros(2 * n + 1, dtype=complex)
    fe[:n] = f
    ie = np.zeros(2 * n + 1, dtype=complex)
    ie[:n] = 1.0
    return _per_h_cyclic_raw(fe, s) / _per_h_cyclic_raw(ie, s)


def _assert_hex_equal(got, raw, order):
    assert got.raw_power_average.hex() == raw.hex()
    assert got.norm.hex() == (raw ** (1.0 / order)).hex()


# U^4 local norms cost about (2n)^3 FFT points: keep them to n <= 10
_S_AND_N = st.sampled_from([1, 2, 3]).flatmap(lambda s: st.tuples(st.just(s), st.integers(1, 80 if s < 3 else 10)))


@settings(max_examples=120, derandomize=True, deadline=None)
@given(s_n=_S_AND_N, rows=st.sampled_from([1, 3, 10**4]), complex_f=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_row_blocks_bit_identical_to_per_h_loop(s_n, rows, complex_f, seed):
    s, n = s_n
    rng = np.random.default_rng(seed)
    f = rng.normal(size=n) + (1j * rng.normal(size=n) if complex_f else 0)
    with mock.patch.object(gowers, "ROWS", rows):
        cyc = gowers.gowers_norm_cyclic(f, s)
        loc = gowers.gowers_norm_local(f, s)
    _assert_hex_equal(cyc, _per_h_cyclic_raw(f.astype(complex), s), 2 ** (s + 1))
    _assert_hex_equal(loc, _per_h_local_raw(f, s), 2 ** (s + 1))


def test_local_norms_bit_identical_at_benchmark_size():
    # the sieve-gowers ops: U^2 at N = 1e5 and U^3 at N = 1000 for every
    # W-trick residue b mod W = 30
    wp = arith.w_trick(w=5.0)
    for b in (1, 7, 11, 13, 17, 19, 23, 29):
        for n, s in [(10**5, 1), (1000, 2)]:
            f = arith.lambda_bw_array(n, b, wp, primed=True) - 1.0
            _assert_hex_equal(gowers.gowers_norm_local(f, s), _per_h_local_raw(f, s), 2 ** (s + 1))


# ---------------------------------------------------------------------------
# the normaliser's thread


def test_normaliser_failure_reraises_in_the_caller(monkeypatch):
    class KernelFailed(Exception):
        pass

    kernel = gowers._cyclic_raw_recursive

    def failing_on_indicator(f, s, buf):
        if np.isin(f, (0.0, 1.0)).all():
            raise KernelFailed(s)
        return kernel(f, s, buf)

    def failing_on_calling_thread(f, s, buf):
        if threading.current_thread() is threading.main_thread():
            raise KernelFailed(s)
        return kernel(f, s, buf)

    f = np.random.default_rng(3).normal(size=400)
    threads = threading.active_count()
    want = gowers.gowers_norm_local(f, 2)
    assert threading.active_count() == threads
    monkeypatch.setattr(gowers, "_cyclic_raw_recursive", failing_on_indicator)
    with pytest.raises(KernelFailed):
        gowers.gowers_norm_local(f, 2)
    assert threading.active_count() == threads
    # a failing numerator still waits for the normaliser, which runs on
    monkeypatch.setattr(gowers, "_cyclic_raw_recursive", failing_on_calling_thread)
    with pytest.raises(KernelFailed):
        gowers.gowers_norm_local(f, 2)
    assert threading.active_count() == threads
    monkeypatch.undo()
    assert gowers.gowers_norm_local(f, 2).norm.hex() == want.norm.hex()


def test_traced_gowers_functions_run_on_the_calling_thread(monkeypatch):
    # the benchmark tracer keeps one span stack for all threads, so only
    # private kernels may run on the normaliser's thread
    seen = []
    for name in ("gowers_norm_cyclic", "gowers_norm_local"):
        fn = getattr(gowers, name)

        def spy(*args, fn=fn, **kwargs):
            seen.append(threading.current_thread() is threading.main_thread())
            return fn(*args, **kwargs)

        monkeypatch.setattr(gowers, name, spy)
    f = np.random.default_rng(4).normal(size=25)
    for s in (1, 2, 3):
        gowers.gowers_norm_local(f[:8] if s == 3 else f, s)
        gowers.gowers_norm_cyclic(f[:8] if s == 3 else f, s)
    assert len(seen) == 6 and all(seen)
