import itertools

import numpy as np
import pytest

from affprimes import gowers


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
        assert gowers.gowers_norm_cyclic(f, 1, "fourier").norm == pytest.approx(
            naive, rel=1e-9
        )
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


def test_gcs_box(rng):
    for _ in range(50):
        fam = [rand_complex(rng, (5, 5)) for _ in range(4)]
        lhs, rhs, ok = gowers.gcs_box_check(fam)
        assert ok


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
    nu = {
        frozenset(): np.array(1.0),
        frozenset([0]): 0.5 + rng.random(6),
        frozenset([1]): 0.5 + rng.random(6),
        frozenset([0, 1]): 0.5 + rng.random((6, 6)),
    }
    a, b, ok = gowers.nu_self_consistency(nu, (0, 1))
    assert ok, (a, b)


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
        lhs, rhs, ok = gowers.gcs_box_check(fam)
        assert lhs == pytest.approx(abs(_brute_box_average(fam, {}, sizes)), rel=1e-9)
        norms = [_brute_box_average([g] * 2**k, {}, sizes).real ** (1 / 2**k) for g in fam]
        assert rhs == pytest.approx(np.prod(norms), rel=1e-9) and ok
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
    general, direct, ok = gowers.nu_self_consistency(nu, (1, 2))
    assert ok
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


def test_dual_norm_lower_bound(rng):
    n = 50
    big_f = np.ones(n)
    assert gowers.dual_norm_lower_bound(big_f, [np.ones(n)], 1) == pytest.approx(1.0)
    alpha = 0.37
    phase = np.exp(2j * np.pi * alpha * np.arange(n))
    lb = gowers.dual_norm_lower_bound(phase, [phase], 1)
    assert lb == pytest.approx(1.0, rel=1e-9)
    # averaging bound with 1-bounded unit-norm witnesses: cannot exceed sup|F|
    big_f = rng.normal(size=n)
    wits = [
        np.exp(2j * np.pi * rng.random() * np.arange(n)) for _ in range(5)
    ]
    lb = gowers.dual_norm_lower_bound(big_f, wits, 1)
    assert lb <= np.abs(big_f).max() + 1e-12
    with pytest.raises(ValueError):
        gowers.dual_norm_lower_bound(big_f, [], 1)


def test_work_guards():
    with pytest.raises(ValueError):
        gowers.gowers_norm_cyclic(np.ones(10**4), 2, "naive")
    with pytest.raises(ValueError):
        gowers.gowers_norm_cyclic(np.ones(8), 2, "fourier")
