import itertools
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from affprimes import arith, nilseq

H = nilseq.HeisenbergElement


def _inverse(g):
    """g^-1 under the group law (x, y, z)(x', y', z') = (x + x', y + y', z + z' + x y')."""
    return H(-g.x, -g.y, -g.z + g.x * g.y)


def _is_identity(g):
    return g.x == 0 and g.y == 0 and g.z == 0


def _in_center(g):
    return g.x == 0 and g.y == 0


def rand_el(rng, den=12, span=40):
    return H.exact(
        Fraction(int(rng.integers(-span, span)), int(rng.integers(1, den))),
        Fraction(int(rng.integers(-span, span)), int(rng.integers(1, den))),
        Fraction(int(rng.integers(-span, span)), int(rng.integers(1, den))),
    )


class TestGroup:
    def test_axioms_exact(self, rng):
        for _ in range(1000):
            a, b, c = rand_el(rng), rand_el(rng), rand_el(rng)
            assert (a * b) * c == a * (b * c)
        for _ in range(100):
            a = rand_el(rng)
            assert _is_identity(a * _inverse(a))
            assert _is_identity(_inverse(a) * a)

    def test_power_law_vs_iteration(self, rng):
        g = rand_el(rng)
        acc = H.identity()
        for n in range(1, 101):
            acc = acc * g
            assert acc == g.power(n)
        assert g.power(-13) == _inverse(g).power(13)
        assert _is_identity(g.power(0))

    def test_numpy_exponent_stays_exact(self):
        g = H.exact(Fraction(1, 3), Fraction(2, 5), Fraction(1, 7))
        for n in (np.int64(5), np.int32(-4), np.uint8(3)):
            got = g.power(n)
            assert got == g.power(int(n))
            assert all(type(c) is Fraction for c in (got.x, got.y, got.z))
        assert g.power(np.int64(5)).z == Fraction(43, 21)
        x0 = H.exact(Fraction(1, 2), Fraction(1, 3), Fraction(1, 5))
        h = tuple(np.array([1, 3, 4], dtype=np.int64))
        cube = nilseq.orbit_parallelepiped(g, x0, np.int64(2), h)
        assert cube == nilseq.orbit_parallelepiped(g, x0, 2, (1, 3, 4))
        assert all(type(v.z) is Fraction for v in cube.values())

    def test_numpy_integer_coordinates_do_not_wrap(self):
        # a numpy integer coordinate, bare or as a Fraction's numerator, becomes a
        # Python int: z passes 2^63 exactly instead of wrapping in int64
        for y in (np.int64(999999), Fraction(np.int64(999999))):
            g = H.exact(999753, y, np.int32(0))
            assert all(type(c.numerator) is int for c in (g.x, g.y, g.z))
            got = g.power(-4295)
            assert got == H(Fraction(-4293939135), Fraction(-4294995705), Fraction(9223372038598738020))
            assert got.z.numerator == (-4295) * (-4296) // 2 * 999753 * 999999

    def test_commutators_central(self, rng):
        def commutator(a, b):
            return a * b * _inverse(a) * _inverse(b)

        for _ in range(100):
            a, b = rand_el(rng), rand_el(rng)
            assert _in_center(commutator(a, b))


def _centered(t):
    """(t - k, k) with the shifted value in (-1/2, 1/2]."""
    k = math.ceil(t - Fraction(1, 2))
    return t - k, k


def _fraction_reduce(g):
    """reduce_to_fundamental_domain in Fraction arithmetic: the oracle of the integer centring."""
    g = H.exact(g.x, g.y, g.z)
    _, b = _centered(g.y)
    g1 = g * H(0, -b, 0)
    _, a = _centered(g1.x)
    g2 = g1 * H(-a, 0, 0)
    _, c = _centered(g2.z)
    g3 = g2 * H(0, 0, -c)
    gamma = H(0, -b, 0) * H(-a, 0, 0) * H(0, 0, -c)
    return nilseq.NilPoint(g3.x, g3.y, g3.z), gamma


def _rational(max_den):
    return st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, max_den))


def _coordinate(max_den):
    """A Fraction, or an int / numpy int when the denominator is 1."""
    frac = _rational(max_den)
    if max_den > 1:
        return frac
    return st.one_of(frac, st.integers(-10**6, 10**6), st.integers(-10**6, 10**6).map(np.int64))


def _elements(max_den):
    c = _coordinate(max_den)
    return st.builds(H, c, c, c)


_DENS = st.sampled_from([1, 2, 12, 10**12])

_exponents = st.one_of(
    st.integers(-10**4, 10**4),
    st.integers(-10**4, 10**4).map(np.int64),
    st.integers(-100, 100).map(np.int32),
)


class TestReduction:
    @settings(max_examples=400, derandomize=True, deadline=None)
    @given(_DENS.flatmap(_elements))
    def test_integer_centring_matches_fraction_route(self, g):
        pt, gamma = nilseq.reduce_to_fundamental_domain(g)
        want_pt, want_gamma = _fraction_reduce(g)
        assert pt == want_pt and gamma == want_gamma
        assert all(type(c) is Fraction for c in (pt.x, pt.y, pt.z))
        assert all(type(c) is int for c in (gamma.x, gamma.y, gamma.z))

    def test_half_integers_stay_at_one_half(self):
        for v in (Fraction(1, 2), Fraction(-1, 2), Fraction(7, 2), Fraction(-9, 2)):
            for g in (H(v, 0, 0), H(0, v, 0), H(0, 0, v)):
                pt, gamma = nilseq.reduce_to_fundamental_domain(g)
                assert (pt, gamma) == _fraction_reduce(g)
                assert Fraction(1, 2) in (pt.x, pt.y, pt.z)

    def test_float_coordinates_rejected(self):
        for g in (H(0.5, 0, 0), H(0, np.float64(1.0), 0), H(0, 0, 0.25)):
            with pytest.raises(ValueError, match="exact"):
                nilseq.reduce_to_fundamental_domain(g)

    def test_integer_elements_reduce_to_origin(self):
        pt, gamma = nilseq.reduce_to_fundamental_domain(H.exact(3, -2, 7))
        assert (pt.x, pt.y, pt.z) == (0, 0, 0)

    def test_single_coordinate(self):
        pt, _ = nilseq.reduce_to_fundamental_domain(H.exact(Fraction(3, 5), 0, 0))
        assert pt.x == Fraction(-2, 5) and pt.y == 0 and pt.z == 0

    def test_half_open_convention(self):
        pt, _ = nilseq.reduce_to_fundamental_domain(H.exact(Fraction(1, 2), 0, 0))
        assert pt.x == Fraction(1, 2)
        pt, _ = nilseq.reduce_to_fundamental_domain(H.exact(Fraction(-1, 2), 0, 0))
        assert pt.x == Fraction(1, 2)

    def test_right_translate_and_idempotence(self, rng):
        for _ in range(1000):
            g = rand_el(rng)
            pt, gamma = nilseq.reduce_to_fundamental_domain(g)
            # gamma has integer entries
            assert gamma.x.denominator == gamma.y.denominator == 1
            assert gamma.z.denominator == 1
            moved = g * gamma
            assert (moved.x, moved.y, moved.z) == (pt.x, pt.y, pt.z)
            pt2, gamma2 = nilseq.reduce_to_fundamental_domain(
                H(pt.x, pt.y, pt.z)
            )
            assert pt2 == pt and _is_identity(gamma2)


def _old_nilpoint_verdict(c):
    """The range check NilPoint made before: two Fraction comparisons (its oracle)."""
    try:
        return -Fraction(1, 2) < Fraction(c) <= Fraction(1, 2)
    except Exception as e:
        return type(e)


def _nilpoint_verdict(c):
    """(accepted in x, in y, in z) or the exception type raised."""
    out = []
    for args in ((c, 0, 0), (0, c, 0), (0, 0, c)):
        try:
            nilseq.NilPoint(*args)
            out.append(True)
        except ValueError as e:
            if "(-1/2, 1/2]" not in str(e):
                return ValueError
            out.append(False)
        except Exception as e:
            return type(e)
    assert len(set(out)) == 1
    return out[0]


_HALF = Fraction(1, 2)
_EPS = Fraction(1, 10**12)


@pytest.mark.parametrize("c", [
    0, 1, -1, 2, True, False,
    _HALF, -_HALF, _HALF - _EPS, -_HALF + _EPS, _HALF + _EPS, -_HALF - _EPS, Fraction(3, 7), Fraction(-4, 7),
    0.5, -0.5, 0.25, -0.0, 0.0, float(np.nextafter(0.5, 0)), float(np.nextafter(-0.5, 0)),
    float(np.nextafter(0.5, 1)), float(np.nextafter(-0.5, -1)), 1e300, 5e-324,
    np.float64(0.5), np.float64(-0.5), np.float64(np.nextafter(-0.5, 0)),
    np.int64(0), np.int64(1), np.int32(-1), np.uint8(0), np.int8(-1),
    float("nan"), float("inf"), float("-inf"), np.float32(0.25), None, 0.5j, "1/3", "1/2", "-1/2",
])
def test_nilpoint_range_matches_fraction_comparison(c):
    assert _nilpoint_verdict(c) == _old_nilpoint_verdict(c)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.one_of(
    st.floats(-1, 1), st.fractions(-1, 1, max_denominator=10**6), st.integers(-3, 3),
    st.integers(-3, 3).map(np.int64),
    st.builds(lambda half, d, q: half + Fraction(d, q),
              st.sampled_from([-_HALF, _HALF]), st.integers(-1, 1), st.integers(1, 10**9)),
))
def test_nilpoint_range_matches_fraction_comparison_random(c):
    assert _nilpoint_verdict(c) == _old_nilpoint_verdict(c)


class TestQuadraticPhase:
    def test_example_third(self):
        pt = nilseq.quadratic_phase_orbit(Fraction(1, 3), 2)
        assert pt == nilseq.NilPoint(Fraction(1, 3), Fraction(0), Fraction(1, 3))

    def test_trivial_cases(self):
        assert nilseq.quadratic_phase_orbit(Fraction(1, 7), 0) == nilseq.NilPoint(0, 0, 0)
        for n in (-5, 0, 3, 12):
            assert nilseq.quadratic_phase_orbit(Fraction(0), n) == nilseq.NilPoint(0, 0, 0)

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(_DENS.flatmap(_rational), _exponents)
    def test_matches_fraction_closed_form(self, theta, n):
        pt = nilseq.quadratic_phase_orbit(theta, n)
        x, _ = _centered(-int(n) * theta)
        z, _ = _centered(int(n) ** 2 * theta)
        assert pt == nilseq.NilPoint(x, Fraction(0), z)

    def test_numpy_exponent_does_not_wrap(self):
        # n * n overflows int64 for this n; the closed form must square a Python int
        n = 3_037_000_500
        assert n * n > np.iinfo(np.int64).max
        theta = Fraction(1, 7)
        want = nilseq.quadratic_phase_orbit(theta, n)
        assert nilseq.quadratic_phase_orbit(theta, np.int64(n)) == want
        assert want.z == _centered(n * n * theta)[0]

    def test_float_arguments_rejected(self):
        with pytest.raises(ValueError, match="exact"):
            nilseq.quadratic_phase_orbit(0.25, 3)
        with pytest.raises(TypeError):
            nilseq.quadratic_phase_orbit(Fraction(1, 4), 3.0)

    def test_random_realizations_exact(self, rng):
        # the orbit of [[1,-t,-t],[0,1,2],[0,0,1]] reduces to ({-nt}, 0, {n^2 t})
        for _ in range(1000):
            theta = Fraction(int(rng.integers(-999, 1000)), int(rng.integers(1, 97)))
            n = int(rng.integers(-3000, 3000))
            nilseq.quadratic_phase_orbit(theta, n)      # asserts internally


def _power_route_orbit(theta, n):
    """quadratic_phase_orbit as it was: g.power(n) in Fraction coordinates, then
    reduce_to_fundamental_domain (the oracle of the orbit on numerators)."""
    theta = Fraction(theta)
    pt, _ = nilseq.reduce_to_fundamental_domain(H(-theta, 2, -theta).power(n))
    return pt


def _without_xby_term(x, a, y, b, z, c):
    """nilseq._reduce_numerators with the x * by term of the y step dropped."""
    s = math.lcm(c, a)
    z *= s // c
    by = -nilseq._shift(y, b)
    bx, bz = -nilseq._shift(x, a), -nilseq._shift(z, s)
    return (x + bx * a, y + by * b, z + bz * s), s, (bx, by, bz)


class TestOrbitOnNumerators:
    @settings(max_examples=400, derandomize=True, deadline=None)
    @given(_DENS.flatmap(_rational), st.one_of(_exponents, st.integers(-3 * 10**9, 3 * 10**9)))
    @example(Fraction(1, 7), 3_037_000_500)
    @example(Fraction(-999_999, 10**12), -3 * 10**9)
    def test_matches_power_route(self, theta, n):
        got, want = nilseq.quadratic_phase_orbit(theta, n), _power_route_orbit(theta, int(n))
        assert got == want
        for g, w in zip((got.x, got.y, got.z), (want.x, want.y, want.z)):
            assert type(g) is type(w) is Fraction and (g.numerator, g.denominator) == (w.numerator, w.denominator)

    def test_kernel_without_xby_term_is_caught(self, monkeypatch):
        # the dropped term moves z by 2 n^2 t / d; the closed-form check must see it
        cases = [(Fraction(1, 3), 2), (Fraction(2, 7), 5), (Fraction(-5, 12), -4), (Fraction(7, 10**12 + 1), 3 * 10**9)]
        for theta, n in cases:
            assert (2 * n * n * theta).denominator != 1
            assert nilseq.quadratic_phase_orbit(theta, n) == _power_route_orbit(theta, n)
        monkeypatch.setattr(nilseq, "_reduce_numerators", _without_xby_term)
        for theta, n in cases:
            with pytest.raises(AssertionError, match="closed form"):
                nilseq.quadratic_phase_orbit(theta, n)


class TestParallelepipeds:
    def test_abelian_orbit(self, rng):
        for _ in range(1000):
            g = float(rng.random())
            x = float(rng.random())
            n, h1, h2 = (int(v) for v in rng.integers(-50, 50, size=3))
            pts = nilseq.abelian_orbit_parallelepiped(g, x, n, h1, h2)
            assert nilseq.abelian_constraint(pts) < 1e-9

    def test_abelian_vector_valued(self, rng):
        g = (0.11, 0.77)
        x = (0.2, 0.9)
        pts = nilseq.abelian_orbit_parallelepiped(g, x, 3, 5, 8)
        assert nilseq.abelian_constraint(pts) < 1e-12
        same = {w: (0.3, 0.4) for w in pts}
        assert nilseq.abelian_constraint(same) == 0

    def test_abelian_perturbation(self):
        pts = nilseq.abelian_orbit_parallelepiped(0.1, 0.2, 1, 2, 3)
        pts[(1, 1)] = pts[(1, 1)] + 0.25
        assert nilseq.abelian_constraint(pts) == pytest.approx(0.25)

    def test_skew_orbit_exact(self, rng):
        for _ in range(1000):
            alpha = Fraction(int(rng.integers(1, 400)), int(rng.integers(1, 97)))
            x = Fraction(int(rng.integers(0, 30)), int(rng.integers(1, 13)))
            y = Fraction(int(rng.integers(0, 30)), int(rng.integers(1, 13)))
            n = int(rng.integers(-40, 40))
            h = tuple(int(v) for v in rng.integers(-20, 20, size=3))
            cube = nilseq.skew_orbit_parallelepiped(alpha, x, y, n, h)
            seven = {w: v for w, v in cube.items() if w != (0, 0, 0)}
            chk = nilseq.skew_constraint(seven, true_vertex=cube[(0, 0, 0)])
            assert chk.residual == 0
            assert all(r == 0 for r in chk.x_residuals)

    def test_skew_float_orbit(self):
        alpha = np.sqrt(2) - 1
        cube = nilseq.skew_orbit_parallelepiped(alpha, 0.3, 0.9, 7, (2, 11, 5))
        seven = {w: v for w, v in cube.items() if w != (0, 0, 0)}
        chk = nilseq.skew_constraint(seven, true_vertex=cube[(0, 0, 0)])
        assert chk.residual < 1e-9

    def test_skew_h_zero_all_equal(self):
        cube = nilseq.skew_orbit_parallelepiped(Fraction(1, 3), Fraction(0), Fraction(0), 5, (0, 0, 0))
        seven = {w: v for w, v in cube.items() if w != (0, 0, 0)}
        chk = nilseq.skew_constraint(seven, true_vertex=cube[(0, 0, 0)])
        assert chk.residual == 0

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(st.data())
    def test_orbit_cube_matches_group_law(self, data):
        max_den = data.draw(_DENS)
        g, x0 = data.draw(_elements(max_den)), data.draw(_elements(max_den))
        n = data.draw(_exponents)
        h = tuple(data.draw(st.lists(_exponents, min_size=3, max_size=3)))
        cube = nilseq.orbit_parallelepiped(g, x0, n, h)
        want = _power_cube(g, x0, n, h)
        assert cube == want
        assert list(cube) == list(itertools.product((0, 1), repeat=3))
        assert all(type(c) is Fraction for v in cube.values() for c in (v.x, v.y, v.z))
        # the integer cube the dict is built from: Python ints, one positive denominator per coordinate
        dens, nums = nilseq.orbit_cube(g, x0, n, h)
        assert all(type(d) is int and d > 0 for d in dens)
        assert all(type(c) is int for v in nums for c in v)
        assert [tuple(Fraction(c, d) for c, d in zip(v, dens)) for v in nums] == [
            (v.x, v.y, v.z) for v in want.values()
        ]

    def test_orbit_cube_rejects_floats(self):
        g, x0 = H.exact(1, 2, 3), H.identity()
        with pytest.raises(ValueError, match="exact"):
            nilseq.orbit_parallelepiped(H(0.5, 0, 0), x0, 1, (1, 2, 3))
        with pytest.raises(ValueError, match="exact"):
            nilseq.orbit_parallelepiped(g, H(0, 0, np.float64(0.5)), 1, (1, 2, 3))
        with pytest.raises(TypeError):
            nilseq.orbit_parallelepiped(g, x0, 1.0, (1, 2, 3))

    def test_skew_random_points_violate(self, rng):
        pts = {
            w: (Fraction(int(rng.integers(1, 97)), 97), Fraction(int(rng.integers(1, 97)), 97))
            for w in itertools.product((0, 1), repeat=3)
            if w != (0, 0, 0)
        }
        chk = nilseq.skew_constraint(pts)
        assert any(r != 0 for r in chk.x_residuals)


def _power_cube(g, x0, n, h):
    """orbit_parallelepiped by the group law g.power(m) * x0: the oracle of the closed form."""
    g, x0 = H.exact(g.x, g.y, g.z), H.exact(x0.x, x0.y, x0.z)
    return {
        w: g.power(n + sum(wi * hi for wi, hi in zip(w, h))) * x0
        for w in itertools.product((0, 1), repeat=3)
    }


def _fraction_peel(cube):
    """The Host-Kra peel in HeisenbergElement arithmetic: the oracle of the integer peel.

    Returns (taus, success, failures)."""
    omegas = list(itertools.product((0, 1), repeat=3))
    residual = dict(cube)
    taus = []
    failures = []
    for m in sorted(omegas, key=lambda m: (-sum(m), m)):
        codim = 3 - sum(m)
        tau = residual[m]
        if codim == 2 and not _in_center(tau):
            failures.append((m, "not central"))
        if codim == 3 and not _is_identity(tau):
            failures.append((m, "not identity"))
        taus.append((m, tau))
        inv = _inverse(tau)
        for w in omegas:
            if all(wi <= mi for wi, mi in zip(w, m)):
                residual[w] = inv * residual[w]
    success = not failures and all(_is_identity(residual[w]) for w in omegas)
    return taus, success, failures


def _verdict(res):
    return res.taus, res.success, res.failures


@st.composite
def _hk_cubes(draw):
    """Orbit cubes, possibly with a central or non-central shift of one vertex."""
    max_den = draw(_DENS)
    g, x0 = draw(_elements(max_den)), draw(_elements(max_den))
    small = st.one_of(st.integers(-6, 6), st.integers(-6, 6).map(np.int64))
    n = draw(small)
    h = tuple(draw(st.lists(small, min_size=3, max_size=3)))
    cube = nilseq.orbit_parallelepiped(g, x0, n, h)
    shift = draw(st.sampled_from(["none", "x", "y", "z"]))
    if shift != "none":
        w = draw(st.sampled_from(sorted(cube)))
        delta = draw(_rational(max_den).filter(lambda v: v != 0))
        v = cube[w]
        cube[w] = H(v.x + (shift == "x") * delta, v.y + (shift == "y") * delta,
                    v.z + (shift == "z") * delta)
    return cube


class TestHostKra:
    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(_hk_cubes())
    def test_integer_peel_matches_fraction_peel(self, cube):
        got = nilseq.hk_factorize_heisenberg(cube)
        assert _verdict(got) == _fraction_peel(cube)
        assert all(type(c) is Fraction for _, tau in got.taus for c in (tau.x, tau.y, tau.z))

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(st.data())
    def test_integer_cube_peel_matches_fraction_peel(self, data):
        # the peel of nil-check: the IntCube of orbit_cube and its shift_z copy, with
        # unreduced denominators, against the Fraction peel of the dict and its perturbed copy
        max_den = data.draw(_DENS)
        g, x0 = data.draw(_elements(max_den)), data.draw(_elements(max_den))
        small = st.one_of(st.integers(-6, 6), st.integers(-6, 6).map(np.int64))
        n = data.draw(small)
        h = tuple(data.draw(st.lists(small, min_size=3, max_size=3)))
        int_cube = nilseq.orbit_cube(g, x0, n, h)
        cube = nilseq.orbit_parallelepiped(g, x0, n, h)
        got = nilseq.hk_factorize_heisenberg(int_cube)
        assert _verdict(got) == _fraction_peel(cube) and got.success
        w = data.draw(st.sampled_from(sorted(cube)))
        num, den = data.draw(st.integers(-10**6, 10**6)), data.draw(st.sampled_from([1, 10, 12, 10**12]))
        shifted = int_cube.shift_z(w, num, den)
        assert shifted.dens == (int_cube.dens[0], int_cube.dens[1], int_cube.dens[2] * den)
        v = cube[w]
        cube[w] = H(v.x, v.y, v.z + Fraction(num, den))
        got = nilseq.hk_factorize_heisenberg(shifted)
        assert _verdict(got) == _fraction_peel(cube)
        assert got.success == (num == 0)

    def test_mapping_and_integer_cube_give_one_verdict(self):
        # a mapping is converted into an IntCube over reduced lcms; the same cube over
        # larger, unreduced denominators gives the same taus, failures and success
        g, x0 = H.exact(Fraction(1, 3), Fraction(2, 5), Fraction(1, 7)), H.exact(Fraction(1, 2), 0, 0)
        int_cube = nilseq.orbit_cube(g, x0, 2, (1, 3, 4))
        (dx, dy, dz), nums = int_cube
        wide = nilseq.IntCube((6 * dx, 10 * dy, 14 * dz), tuple((6 * x, 10 * y, 14 * z) for x, y, z in nums))
        cube = nilseq.orbit_parallelepiped(g, x0, 2, (1, 3, 4))
        want = _verdict(nilseq.hk_factorize_heisenberg(cube))
        assert _verdict(nilseq.hk_factorize_heisenberg(int_cube)) == want
        assert _verdict(nilseq.hk_factorize_heisenberg(wide)) == want
        assert want == _fraction_peel(cube)

    def test_taus_built_on_first_read(self):
        g, x0 = H.exact(Fraction(1, 3), Fraction(2, 5), Fraction(1, 7)), H.identity()
        res = nilseq.hk_factorize_heisenberg(nilseq.orbit_parallelepiped(g, x0, 2, (1, 3, 4)))
        assert res.success and "taus" not in vars(res)
        assert res.taus is res.taus and "taus" in vars(res)

    def test_integer_coordinate_cubes(self):
        ident = {w: H.identity() for w in itertools.product((0, 1), repeat=3)}
        assert _verdict(nilseq.hk_factorize_heisenberg(ident)) == _fraction_peel(ident)
        g, x0 = H(2, -3, 5), H(1, 4, -7)
        cube = nilseq.orbit_parallelepiped(g, x0, 3, (1, -2, 4))
        got = nilseq.hk_factorize_heisenberg(cube)
        assert got.success and _verdict(got) == _fraction_peel(cube)
        mixed = dict(cube)
        mixed[(1, 1, 1)] = H(np.int64(4), Fraction(1, 2), 3)
        assert _verdict(nilseq.hk_factorize_heisenberg(mixed)) == _fraction_peel(mixed)

    def test_float_coordinates_rejected(self):
        cube = {w: H.identity() for w in itertools.product((0, 1), repeat=3)}
        cube[(0, 1, 0)] = H(0, 0.5, 0)
        with pytest.raises(ValueError, match="exact"):
            nilseq.hk_factorize_heisenberg(cube)
        cube[(0, 1, 0)] = H(0, 0, np.float64(1.0))
        with pytest.raises(ValueError, match="exact"):
            nilseq.hk_factorize_heisenberg(cube)

    def test_orbit_cubes_factor(self, rng):
        for _ in range(1000):
            g, x0 = rand_el(rng, den=8, span=20), rand_el(rng, den=8, span=20)
            n = int(rng.integers(-6, 7))
            h = tuple(int(v) for v in rng.integers(-6, 7, size=3))
            cube = nilseq.orbit_parallelepiped(g, x0, n, h)
            res = nilseq.hk_factorize_heisenberg(cube)
            assert res.success
            # codimension pattern: faces of codim 2 carry central factors
            for m, tau in res.taus:
                codim = 3 - sum(m)
                if codim == 2:
                    assert _in_center(tau)
                if codim == 3:
                    assert _is_identity(tau)

    def test_identity_cube(self):
        cube = {w: H.identity() for w in itertools.product((0, 1), repeat=3)}
        res = nilseq.hk_factorize_heisenberg(cube)
        assert res.success
        assert all(_is_identity(tau) for _, tau in res.taus)

    def test_center_perturbation_always_fails(self, rng):
        fails = 0
        trials = 200
        for _ in range(trials):
            g, x0 = rand_el(rng, den=8, span=20), rand_el(rng, den=8, span=20)
            cube = nilseq.orbit_parallelepiped(
                g, x0, int(rng.integers(-6, 7)), tuple(int(v) for v in rng.integers(-6, 7, size=3))
            )
            v = cube[(0, 0, 0)]
            cube[(0, 0, 0)] = H(v.x, v.y, v.z + Fraction(1, 10))
            if not nilseq.hk_factorize_heisenberg(cube).success:
                fails += 1
        assert fails == trials

    def test_h_swap_symmetry(self, rng):
        # relabeling h1 <-> h2 permutes the cube by the coordinate swap
        g, x0 = rand_el(rng), rand_el(rng)
        n, h = 3, (4, 7, 2)
        cube = nilseq.orbit_parallelepiped(g, x0, n, h)
        swapped = nilseq.orbit_parallelepiped(g, x0, n, (h[1], h[0], h[2]))
        for w in cube:
            assert cube[w] == swapped[(w[1], w[0], w[2])]
        assert nilseq.hk_factorize_heisenberg(swapped).success


class TestCorrelations:
    def test_constant_function(self, tables_1e6):
        f1 = lambda x, y, z: np.ones_like(np.asarray(x))
        g = H(np.sqrt(2) - 1, 2.0, np.sqrt(3) - 1.5)
        v = nilseq.mobius_nil_correlation(10**6, g, H.identity(), f1, tables_1e6)
        assert abs(v) < 0.005

    def test_phase_decay(self, tables_1e6):
        worst = {}
        for n in (10**3, 10**5):
            mx = 0.0
            for k in range(1, 1000):
                val = abs(nilseq.mobius_phase_correlation(n, k / 1000.0, tables_1e6))
                mx = max(mx, val)
            worst[n] = mx
        assert worst[10**5] < worst[10**3]

    def test_heisenberg_builtin(self, tables_1e6):
        theta = (np.sqrt(5) - 1) / 2
        g = H(-theta, 2.0, -theta)
        func = nilseq.smooth_cell_function()
        v = nilseq.mobius_nil_correlation(10**5, g, H.identity(), func, tables_1e6)
        assert abs(v) < 0.05

    def test_orbit_coords_match_exact_reduction(self):
        ge = H.exact(Fraction(1, 7), Fraction(2), Fraction(3, 5))
        x0 = H.exact(Fraction(1, 3), Fraction(1, 2), Fraction(1, 11))
        xx, yy, zz = nilseq.heisenberg_orbit_coords(
            H(float(ge.x), float(ge.y), float(ge.z)),
            H(float(x0.x), float(x0.y), float(x0.z)),
            60,
        )
        for n in (1, 7, 23, 41, 60):
            pt, _ = nilseq.reduce_to_fundamental_domain(ge.power(n) * x0)
            assert abs(float(pt.x) - xx[n - 1]) < 1e-9
            assert abs(float(pt.y) - yy[n - 1]) < 1e-9
            assert abs(float(pt.z) - zz[n - 1]) < 1e-9


def _cell_function(center_x, center_y, width):
    """nilseq.smooth_cell_function built with CELL_WIDTH set to width, its bumps
    moved to (center_x, center_y): f reads x - center_x and y - center_y."""
    with mock.patch.object(nilseq, "CELL_WIDTH", width):
        f = nilseq.smooth_cell_function()
    return lambda x, y, z: f(np.subtract(x, center_x), np.subtract(y, center_y), z)


def _unmasked_cell_function(center_x, center_y, width=0.25):
    """smooth_cell_function as it was: e(z) evaluated everywhere (the oracle of the masked f)."""

    def bump(t):
        t = np.abs(t - np.round(t))
        u = np.clip(1.0 - (t / (width / 2.0)) ** 2, 0.0, None)
        return u * u

    def f(x, y, z):
        return bump(np.asarray(x) - center_x) * bump(np.asarray(y) - center_y) * np.exp(2j * np.pi * np.asarray(z))

    return f


def _full_bump_cell_function(center_x, center_y, width=0.25):
    """smooth_cell_function before it read y's bump only where x's is nonzero:
    both bumps everywhere, e(z) where their product is nonzero (its oracle)."""

    def bump(t):
        t = np.abs(t - np.round(t))
        u = np.clip(1.0 - (t / (width / 2.0)) ** 2, 0.0, None)
        return u * u

    def f(x, y, z):
        w = bump(np.asarray(x) - center_x) * bump(np.asarray(y) - center_y)
        out = np.zeros(w.shape, dtype=complex)
        nz = w != 0
        out[nz] = w[nz] * np.exp(2j * np.pi * np.asarray(z)[nz])
        return out

    return f


def _hex(v):
    return [(c.real.hex(), c.imag.hex()) for c in np.asarray(v, dtype=complex).ravel()]


class TestMaskedCellFunction:
    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 300),
           st.sampled_from([(0.0, 0.0, 0.25), (0.3, -0.2, 0.25), (0.5, 0.5, 0.1)]))
    def test_masked_product_matches_unmasked(self, seed, n, params):
        # points on the support edge |t| = width/2 (bump exactly 0), just inside it and at random
        rng = np.random.default_rng(seed)
        cx, cy, width = params
        edge = np.array([width / 2, -width / 2, np.nextafter(width / 2, 0), np.nextafter(-width / 2, 0)])
        x = np.where(rng.random(n) < 0.5, cx + rng.choice(edge, n), rng.uniform(-0.5, 0.5, n))
        y = np.where(rng.random(n) < 0.5, cy + rng.choice(edge, n), rng.uniform(-0.5, 0.5, n))
        z = rng.uniform(-0.5, 0.5, n)
        got = _cell_function(cx, cy, width)(x, y, z)
        want = _unmasked_cell_function(cx, cy, width)(x, y, z)
        assert got.dtype == want.dtype == np.complex128 and got.shape == want.shape
        on = want != 0
        assert _hex(got[on]) == _hex(want[on])
        # off the support the masked f writes +0; the product may carry -0 there
        assert np.all(got[~on] == 0) and _hex(got[~on]) == [("0x0.0p+0", "0x0.0p+0")] * int((~on).sum())
        # so every sum of mu-weighted values is bit-equal, signed zeros included
        mu = rng.integers(-1, 2, n).astype(np.float64)
        assert _hex(np.mean(mu * got)) == _hex(np.mean(mu * want))
        assert _hex(np.sum(mu[~on] * got[~on])) == _hex(np.sum(mu[~on] * want[~on]))

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(0, 300),
           st.sampled_from(["inside", "outside", "x inside", "mixed"]),
           st.sampled_from([(0.0, 0.0, 0.25), (0.3, -0.2, 0.25), (0.5, 0.5, 0.1), (-0.45, 0.1, 0.6)]))
    def test_matches_full_bump_formula(self, seed, n, where, params):
        # every x-bump nonzero, every one zero, x inside with y anywhere, or a mix
        rng = np.random.default_rng(seed)
        cx, cy, width = params
        inside = lambda c: c + rng.uniform(-0.49, 0.49, n) * width        # noqa: E731
        outside = lambda c: c + 0.5 + rng.uniform(-0.49, 0.49, n) * (1 - width)  # noqa: E731
        anywhere = lambda c: rng.uniform(-0.5, 0.5, n)                     # noqa: E731
        fx, fy = {"inside": (inside, inside), "outside": (outside, anywhere),
                  "x inside": (inside, anywhere), "mixed": (anywhere, anywhere)}[where]
        x, y, z = fx(cx), fy(cy), rng.uniform(-0.5, 0.5, n)
        got = _cell_function(cx, cy, width)(x, y, z)
        want = _full_bump_cell_function(cx, cy, width)(x, y, z)
        assert got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()
        # 0-d input, at the first point or at the centre
        for args in ((x[0], y[0], z[0]) if n else (cx, cy, 0.1), (cx, cy, z[0] if n else 0.3)):
            got = _cell_function(cx, cy, width)(*args)
            want = _full_bump_cell_function(cx, cy, width)(*args)
            assert got.shape == want.shape == () and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("theta", [0.5 * (np.sqrt(5) - 1), 0.3, np.sqrt(2) - 1, 1 / 7])
    def test_correlation_matches_unmasked(self, tables_1e6, theta):
        # small N includes N where every bump is 0, where the sums are of signed zeros
        g = H(-theta, 2.0, -theta)
        masked, unmasked = nilseq.smooth_cell_function(), _unmasked_cell_function(0.0, 0.0)
        for n in [*range(1, 60), 997, 10**4]:
            got = nilseq.mobius_nil_correlation(n, g, H.identity(), masked, tables_1e6)
            want = nilseq.mobius_nil_correlation(n, g, H.identity(), unmasked, tables_1e6)
            assert _hex(got) == _hex(want), n
        # the N where every bump is 0 are among those compared
        first = np.flatnonzero(masked(*nilseq.heisenberg_orbit_coords(g, H.identity(), 59)))[0] + 1
        assert first > 1


def _one_shot_nil_correlation(n_max, g, x0, func, tables):
    """mobius_nil_correlation as one product over 1..N (the oracle of the chunked sum)."""
    mu = tables.mobius[1: n_max + 1]
    xx, yy, zz = nilseq.heisenberg_orbit_coords(g, x0, n_max)
    return complex(np.mean(mu.astype(np.float64) * func(xx, yy, zz)))


def _one_shot_phase_correlation(n_max, alpha, tables):
    """mobius_phase_correlation as one product over 1..N (the oracle of the chunked sum)."""
    mu = tables.mobius[1: n_max + 1].astype(np.float64)
    n = np.arange(1, n_max + 1, dtype=np.float64)
    return complex(np.mean(mu * np.exp(2j * np.pi * alpha * n)))


# a sum of at most CHUNK complex entries is one leaf; past it numpy's pairwise tree
# splits at half the slots rounded down to 8 (CHUNK + 1: leaves of CHUNK / 2 and
# CHUNK / 2 + 1; 2 CHUNK + 1: a leaf of CHUNK and a node of CHUNK + 1), and 10^6
# is mn-corr's N
_CHUNK_EDGES = [1, 7, nilseq.CHUNK - 1, nilseq.CHUNK, nilseq.CHUNK + 1, 2 * nilseq.CHUNK, 2 * nilseq.CHUNK + 1,
                2 * nilseq.CHUNK + 7, 10**5, 10**6]


class TestChunkedCorrelations:
    @pytest.mark.parametrize("n", _CHUNK_EDGES)
    @pytest.mark.parametrize("theta", [0.5 * (np.sqrt(5) - 1), np.sqrt(2) - 1, -0.3])
    def test_nil_correlation_matches_one_shot(self, tables_1e6, n, theta):
        g, x0 = H(-theta, 2.0, -theta), H(0.1, -0.2, 0.3)
        funcs = [nilseq.smooth_cell_function(), _cell_function(0.3, -0.2, 0.1),
                 lambda x, y, z: np.ones_like(x)]
        for func in funcs:
            got = nilseq.mobius_nil_correlation(n, g, x0, func, tables_1e6)
            assert _hex(got) == _hex(_one_shot_nil_correlation(n, g, x0, func, tables_1e6))

    @pytest.mark.parametrize("n", _CHUNK_EDGES)
    @pytest.mark.parametrize("alpha", [0.5 * (np.sqrt(5) - 1), -0.3, 1e-7, 12345.678])
    def test_phase_correlation_matches_one_shot(self, tables_1e6, n, alpha):
        got = nilseq.mobius_phase_correlation(n, alpha, tables_1e6)
        assert _hex(got) == _hex(_one_shot_phase_correlation(n, alpha, tables_1e6))

    def test_short_table_refused(self):
        tables = arith.build_tables(100)
        with pytest.raises(ValueError, match="need a mobius table up to N"):
            nilseq.mobius_phase_correlation(101, 0.3, tables)

    @pytest.mark.parametrize("n", [0, -5])
    def test_no_terms_refused(self, n):
        # the mean of no terms was (nan+0j) with two RuntimeWarnings
        tables = arith.build_tables(100)
        g, func = H(0.3, 2.0, 0.3), nilseq.smooth_cell_function()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"need N >= 1, not {n}"):
                nilseq.mobius_phase_correlation(n, 0.3, tables)
            with pytest.raises(ValueError, match=f"need N >= 1, not {n}"):
                nilseq.mobius_nil_correlation(n, g, H.identity(), func, tables)

    def test_mean_stores_no_n_long_array(self, tables_1e6):
        # mn-corr's sum at N = 10^6 over built tables: one CHUNK buffer and a
        # chunk's orbit and values, where an N-long array of the complex
        # products alone takes 16 MB
        theta = 0.5 * (np.sqrt(5) - 1)
        g, func = H(-theta, 2.0, -theta), nilseq.smooth_cell_function()
        tables_1e6.mobius
        tracemalloc.start()
        try:
            nilseq.mobius_nil_correlation(10**6, g, H.identity(), func, tables_1e6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2**21

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(st.tuples(*[st.floats(-3, 3, allow_nan=False)] * 6), st.integers(61, 10**6), st.integers(0, 5000))
    @example((-0.5 * (np.sqrt(5) - 1), 2.0, -0.5 * (np.sqrt(5) - 1), 0.0, 0.0, 0.0), 10**6 - 99, 99)
    @example((np.sqrt(2) - 1, 2.0, np.sqrt(3) - 1.5, 1 / 3, 0.5, 1 / 11), nilseq.CHUNK + 1, 2 * nilseq.CHUNK)
    def test_orbit_slice_matches_one_shot(self, coords, lo, length):
        g, x0 = H(*coords[:3]), H(*coords[3:])
        hi = lo + length
        whole = nilseq.heisenberg_orbit_coords(g, x0, hi)
        for part, ref in zip(nilseq.heisenberg_orbit_coords(g, x0, hi, lo), whole):
            assert part.tobytes() == ref[lo - 1:].tobytes()


def test_skew_state_iteration_matches_closed_form(rng):
    # the iterated map (x, y) -> (x + a, y + x) is an independent oracle for
    # the closed-form orbit y + m(m+1)/2 a + m x, whose index convention
    # corresponds to starting the iteration at x + a
    alpha = Fraction(5, 17)
    x0, y0 = Fraction(1, 4), Fraction(2, 9)
    x, y = (x0 + alpha) % 1, y0 % 1
    for m in range(1, 60):
        x, y = (x + alpha) % 1, (y + x) % 1
        cx, cy = nilseq.skew_orbit_point(alpha, x0, y0, m)
        assert nilseq.torus_distance(x, cx + alpha) == 0
        assert nilseq.torus_distance(y, cy) == 0
    assert 0 <= float(x) < 1 and 0 <= float(y) < 1


def test_demo_07_output_unchanged():
    # stdout of demos/07_heisenberg.py, byte for byte: reductions, taus and verdicts
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    out = subprocess.run(
        [sys.executable, str(root / "demos" / "07_heisenberg.py")],
        cwd=root, env=env, capture_output=True, check=True,
    ).stdout
    assert out == (root / "demos" / "07_heisenberg.expected.txt").read_bytes()
