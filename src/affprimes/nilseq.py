"""Explicit nilmanifold computations on the Heisenberg group.

Elements are the upper unitriangular matrices [[1, x, z], [0, 1, y], [0, 0, 1]],
stored as coordinate triples.  Exact-rational mode (int or Fraction
coordinates) is the default for constraint checks: the group law,
fundamental-domain reduction and Host-Kra factorization are then identities
with no tolerance.  The exact kernels work on integer numerators over
common, possibly unreduced, denominators and build Fractions only for the
values they return: an orbit cube stays an IntCube from orbit_cube to the
Host-Kra verdict, and orbit_parallelepiped and HKFactorization.taus are its
Fraction views.  quadratic_phase_orbit computes g^n and its reduction on
numerators, through the integer kernel of reduce_to_fundamental_domain.
They reject float coordinates; float mode is used only for bulk
correlation sums.
"""

import functools
import itertools
import math
import numbers
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

import numpy as np


@dataclass(frozen=True)
class HeisenbergElement:
    x: object
    y: object
    z: object

    def __mul__(self, other):
        # matrix product: z picks up x * y'
        return HeisenbergElement(
            self.x + other.x, self.y + other.y, self.z + other.z + self.x * other.y
        )

    def power(self, n):
        """g^n = (n x, n y, n z + C(n,2) x y); valid for negative n as well.

        An integral n (int or numpy integer) keeps exact coordinates exact.
        """
        try:
            n = operator.index(n)
        except TypeError:
            binom = n * (n - 1) / 2
        else:
            binom = n * (n - 1) // 2
        return HeisenbergElement(n * self.x, n * self.y, n * self.z + binom * self.x * self.y)

    @classmethod
    def identity(cls):
        return cls(0, 0, 0)

    @classmethod
    def exact(cls, x, y, z):
        """Fraction coordinates.  A rational input (int, numpy integer or Fraction) is rebuilt
        from its numerator and denominator as Python ints (_ratio), so that the group law never
        wraps in a fixed-width integer."""
        return cls(*(Fraction(*_ratio(c)) if isinstance(c, numbers.Rational) else Fraction(c) for c in (x, y, z)))


@dataclass(frozen=True)
class NilPoint:
    x: object
    y: object
    z: object

    def __post_init__(self):
        for c in (self.x, self.y, self.z):
            p, q = Fraction(c).as_integer_ratio()       # q > 0: c in (-1/2, 1/2] iff -q < 2 p <= q
            if not -q < 2 * p <= q:
                raise ValueError("NilPoint coordinates must lie in (-1/2, 1/2]")


def _ratio(c):
    """(numerator, denominator) of an exact coordinate, as Python ints."""
    if isinstance(c, (int, Fraction, numbers.Rational)):   # concrete types first: fast
        return operator.index(c.numerator), operator.index(c.denominator)
    raise ValueError(f"exact Heisenberg arithmetic: coordinate {c!r} is not an int or Fraction")


def _shift(num, den):
    """The integer k = ceil(num/den - 1/2), for den > 0: num/den - k lies in (-1/2, 1/2]."""
    return -((den - 2 * num) // (2 * den))


def _reduce_numerators(x, a, y, b, z, c):
    """reduce_to_fundamental_domain of (x/a, y/b, z/c), a, b, c > 0, on integers:
    the reduced point's numerators over (a, b, s), s = lcm(c, a), then s and gamma."""
    # z over a multiple of a, so that the x * by term of the y step stays integral
    s = math.lcm(c, a)
    z *= s // c
    by = -_shift(y, b)
    z += x * by * (s // a)
    bx, bz = -_shift(x, a), -_shift(z, s)
    return (x + bx * a, y + by * b, z + bz * s), s, (bx, by, bz)


def reduce_to_fundamental_domain(g):
    """Right-multiply by gamma in Gamma to land in (-1/2, 1/2]^3.

    Order matters: normalise y first (which feeds x*b into z), then x, then z.
    Returns (NilPoint, gamma) with g * gamma exactly the reduced element; the
    point has Fraction and gamma int coordinates.  Coordinates must be
    numbers.Rational; a float raises ValueError.
    """
    (x, a), (y, b), (z, c) = _ratio(g.x), _ratio(g.y), _ratio(g.z)
    (px, py, pz), s, gamma = _reduce_numerators(x, a, y, b, z, c)
    return NilPoint(Fraction(px, a), Fraction(py, b), Fraction(pz, s)), HeisenbergElement(*gamma)


def quadratic_phase_orbit(theta, n):
    """Reduced orbit point of g = [[1, -theta, -theta], [0, 1, 2], [0, 0, 1]].

    In exact mode the result equals ({-n theta}, 0, {n^2 theta}) with
    fractional parts in (-1/2, 1/2]; the equality is asserted.  The orbit
    point is g^n = (n gx, n gy, n gz + C(n, 2) gx gy), reduced, both on
    numerators over (d, 1, d) for theta = t/d, with Fractions built once at
    the end; the closed form centres the numerators of -n theta and n^2 theta.
    """
    t, d = _ratio(theta)
    n = operator.index(n)
    (x, y, z), _, _ = _reduce_numerators(-n * t, d, 2 * n, 1, -n * t - n * (n - 1) // 2 * 2 * t, d)
    ex, ez = -n * t, n * n * t
    expect_x, expect_z = ex - _shift(ex, d) * d, ez - _shift(ez, d) * d
    if not (x == expect_x and y == 0 and z == expect_z):
        raise AssertionError(f"orbit point ({x}/{d}, {y}, {z}/{d}) differs from closed form "
                             f"({expect_x}/{d}, 0, {expect_z}/{d})")
    return NilPoint(Fraction(x, d), Fraction(0), Fraction(z, d))


# ---------------------------------------------------------------------------
# torus helpers and parallelepiped constraints


def torus_distance(a, b):
    """Distance on R/Z (works on floats, Fractions and numpy arrays)."""
    if isinstance(a, (tuple, list)):
        return max(torus_distance(ai, bi) for ai, bi in zip(a, b))
    d = a - b
    if isinstance(d, Fraction):
        d -= round(d)
        return abs(d)
    d = np.asarray(d, dtype=float)
    d = d - np.round(d)
    return float(np.max(np.abs(d)))


def abelian_constraint(points):
    """Residual of y00 = y01 + y10 - y11 for 2-dimensional parallelepipeds.

    points: mapping omega-pair -> group element of (R/Z)^k (tuple or scalar).
    """
    y00, y10, y01, y11 = (points[w] for w in ((0, 0), (1, 0), (0, 1), (1, 1)))
    if isinstance(y00, (tuple, list)):
        pred = tuple(a + b - c for a, b, c in zip(y01, y10, y11))
    else:
        pred = y01 + y10 - y11
    return torus_distance(y00, pred)


def abelian_orbit_parallelepiped(g, x, n, h1, h2):
    """(x + (n + w.h) g)_{w in {0,1}^2} on (R/Z)^k."""
    k = len(g) if isinstance(g, (tuple, list)) else None

    def pt(m):
        if k is None:
            return x + m * g
        return tuple(xi + m * gi for xi, gi in zip(x, g))

    return {
        (w1, w2): pt(n + w1 * h1 + w2 * h2) for w1 in (0, 1) for w2 in (0, 1)
    }


@dataclass
class SkewCheck:
    x_residuals: tuple
    residual: object        # None when no true vertex was supplied


def skew_constraint(points, true_vertex=None):
    """Constraint check for 3-parallelepipeds of the skew shift (x,y) -> (x+a, y+x).

    points: mapping omega in {0,1}^3 \\ {0} -> (x, y).  The alternating sum
    -sum (-1)^{|w|} (x_w, y_w) predicts the missing vertex; the three linear
    identities among the x-coordinates are reported as residuals (with
    x_000 taken from the prediction).
    """
    omegas = [w for w in itertools.product((0, 1), repeat=3) if w != (0, 0, 0)]
    if set(points) != set(omegas):
        raise ValueError("need exactly the seven non-zero vertices")
    px = py = 0
    for w in omegas:
        sgn = -((-1) ** (sum(w)))
        px += sgn * points[w][0]
        py += sgn * points[w][1]
    x_res = (
        torus_distance(px + points[(0, 1, 1)][0], points[(0, 1, 0)][0] + points[(0, 0, 1)][0]),
        torus_distance(px + points[(1, 0, 1)][0], points[(0, 0, 1)][0] + points[(1, 0, 0)][0]),
        torus_distance(px + points[(1, 1, 0)][0], points[(1, 0, 0)][0] + points[(0, 1, 0)][0]),
    )
    residual = None if true_vertex is None else torus_distance((px, py), true_vertex)
    return SkewCheck(x_residuals=x_res, residual=residual)


def skew_orbit_point(alpha, x, y, m):
    """m-th point of the skew-shift orbit: (x + m a, y + m(m+1)/2 a + m x)."""
    if isinstance(alpha, Fraction) or isinstance(x, Fraction):
        half = Fraction(m * (m + 1), 2)
    else:
        half = m * (m + 1) / 2
    return (x + m * alpha, y + half * alpha + m * x)


def skew_orbit_parallelepiped(alpha, x, y, n, h):
    """All eight vertices (x_w, y_w) for w in {0,1}^3 of the orbit cube."""
    return {
        w: skew_orbit_point(alpha, x, y, n + sum(wi * hi for wi, hi in zip(w, h)))
        for w in itertools.product((0, 1), repeat=3)
    }


# ---------------------------------------------------------------------------
# Host-Kra factorization for the Heisenberg group, s = 2


_OMEGAS = tuple(itertools.product((0, 1), repeat=3))

# Lower faces of {0,1}^3 in decreasing order: a lower face is determined by
# its maximal vertex m, F = {w : w <= m}; faces are sorted by decreasing |m|,
# then lexicographically, so bigger faces come first.  Each entry is
# (m, codimension, index of m in _OMEGAS, indices of the members of F).
_FACES = tuple(
    (m, 3 - sum(m), _OMEGAS.index(m),
     tuple(i for i, w in enumerate(_OMEGAS) if all(a <= b for a, b in zip(w, m))))
    for m in sorted(_OMEGAS, key=lambda m: (-sum(m), m))
)


class IntCube(NamedTuple):
    """A {0,1}^3 cube on integers: vertex _OMEGAS[i] is (X/dx, Y/dy, Z/dz) with
    (X, Y, Z) = nums[i] and (dx, dy, dz) = dens, common and not necessarily reduced."""

    dens: tuple
    nums: tuple

    def shift_z(self, w, num, den):
        """The cube with num/den (den > 0) added to the z of vertex w, over dz * den."""
        (dx, dy, dz), nums = self
        return IntCube((dx, dy, dz * den), tuple(
            (x, y, z * den + (v == w) * num * dz) for v, (x, y, z) in zip(_OMEGAS, nums)
        ))


@dataclass
class HKFactorization:
    """Verdict of the Host-Kra peel.

    taus, the (max_vertex, HeisenbergElement) factors in peel order, is built
    from the peel's integer taus (X, Y, Z) = (a x, b y, s z) on its first read.
    """

    success: bool
    failures: list
    scaled_taus: list = field(repr=False)   # (max_vertex, X, Y, Z) in peel order
    scale: tuple = field(repr=False)         # (a, b, s)

    @functools.cached_property
    def taus(self):
        a, b, s = self.scale
        return [
            (m, HeisenbergElement(Fraction(tx, a), Fraction(ty, b), Fraction(tz, s)))
            for m, tx, ty, tz in self.scaled_taus
        ]


def hk_factorize_heisenberg(cube):
    """Peel a {0,1}^3-indexed cube of group elements into face-group factors.

    Faces are processed in the fixed decreasing order; the factor for face F
    is read off the residual's max(F) coordinate.  Success requires each
    factor to lie in the correct term of the lower central series: arbitrary
    for codimension <= 1, central for codimension 2, identity for
    codimension 3.  The reconstruction prod tau_i = cube holds by
    construction whenever success is True (and is re-checked).

    The peel runs on an IntCube (a mapping {w: HeisenbergElement} is first
    brought over the lcm of each coordinate's denominators).  With (a, b, dz)
    its denominators and k the least integer with dz | k a b, the map
    (x, y, z) -> (a x, b y, k a b z) is an isomorphism onto the group with
    law (X, Y, Z)(X', Y', Z') = (X + X', Y + Y', Z + Z' + k X Y') and takes
    the cube to integer triples.  It maps the centre and the identity onto
    theirs, so every test reads the same on the images; the taus are mapped
    back to Fraction coordinates when HKFactorization.taus is read.  A
    coordinate must be numbers.Rational; a float raises ValueError.
    """
    if not isinstance(cube, IntCube):
        cube = dict(cube)
        if set(cube) != set(_OMEGAS):
            raise ValueError("need all eight vertices")
        coords = [tuple(_ratio(c) for c in (cube[w].x, cube[w].y, cube[w].z)) for w in _OMEGAS]
        dens = tuple(math.lcm(*(v[i][1] for v in coords)) for i in range(3))
        cube = IntCube(dens, tuple(tuple(p * (d // q) for (p, q), d in zip(v, dens)) for v in coords))
    (a, b, dz), nums = cube
    k = dz // math.gcd(dz, a * b)
    s = k * a * b
    target = [(x, y, z * (s // dz)) for x, y, z in nums]
    residual = list(target)
    taus = []
    failures = []
    for m, codim, top, members in _FACES:
        tx, ty, tz = residual[top]
        if codim == 2 and (tx or ty):
            failures.append((m, "not central"))
        if codim == 3 and (tx or ty or tz):
            failures.append((m, "not identity"))
        taus.append((m, tx, ty, tz))
        for i in members:
            # tau^{-1} * residual, with tau^{-1} = (-tx, -ty, -tz + k tx ty)
            rx, ry, rz = residual[i]
            residual[i] = (rx - tx, ry - ty, rz - tz - k * tx * (ry - ty))
    success = not failures and not any(any(r) for r in residual)
    if success:
        # reconstruct and compare exactly
        rebuilt = [(0, 0, 0)] * len(_OMEGAS)
        for (_, _, _, members), (_, tx, ty, tz) in zip(_FACES, taus):
            for i in members:
                rx, ry, rz = rebuilt[i]
                rebuilt[i] = (rx + tx, ry + ty, rz + tz + k * rx * ty)
        if rebuilt != target:
            raise AssertionError("reconstruction mismatch despite successful peel")
    return HKFactorization(success, failures, taus, (a, b, s))


def orbit_cube(g, x0, n, h):
    """(g^{n + w.h} x0)_{w in {0,1}^3} as an IntCube.

    Each vertex is the closed form g^m x0 = (m gx + ux, m gy + uy,
    m (gz + gx uy) + C(m, 2) gx gy + uz), evaluated on integer numerators
    over one common denominator per coordinate.  Coordinates must be
    numbers.Rational and n, h integral; a float raises ValueError.
    """
    (gx, dgx), (gy, dgy), (gz, dgz) = (_ratio(c) for c in (g.x, g.y, g.z))
    (ux, dux), (uy, duy), (uz, duz) = (_ratio(c) for c in (x0.x, x0.y, x0.z))
    n = operator.index(n)
    h = [operator.index(v) for v in h]
    # x = (m ax + bx) / dx, y = (m ay + by) / dy, z = (m az + C(m, 2) qz + bz) / dz
    dx = math.lcm(dgx, dux)
    ax, bx = gx * (dx // dgx), ux * (dx // dux)
    dy = math.lcm(dgy, duy)
    ay, by = gy * (dy // dgy), uy * (dy // duy)
    dz = math.lcm(dgz, dgx * duy, dgx * dgy, duz)
    az = gz * (dz // dgz) + gx * uy * (dz // (dgx * duy))
    qz = gx * gy * (dz // (dgx * dgy))
    bz = uz * (dz // duz)
    ms = (n + w[0] * h[0] + w[1] * h[1] + w[2] * h[2] for w in _OMEGAS)
    return IntCube((dx, dy, dz), tuple(
        (m * ax + bx, m * ay + by, m * az + m * (m - 1) // 2 * qz + bz) for m in ms
    ))


def orbit_parallelepiped(g, x0, n, h):
    """orbit_cube as {w: HeisenbergElement} with Fraction coordinates."""
    (dx, dy, dz), nums = orbit_cube(g, x0, n, h)
    return {
        w: HeisenbergElement(Fraction(x, dx), Fraction(y, dy), Fraction(z, dz))
        for w, (x, y, z) in zip(_OMEGAS, nums)
    }


# ---------------------------------------------------------------------------
# Mobius-nilsequence correlation


def heisenberg_orbit_coords(g, x0, n_max, n_lo=1):
    """Fundamental-domain coordinates of g^n x0 for n = n_lo..n_max, vectorised.

    Uses the closed-form power law and the same y-then-x-then-z reduction as
    the exact path, in float arithmetic.  Each entry depends on its n alone,
    so a slice n_lo..n_max is bit-equal to those entries of the whole range.
    """
    n = np.arange(n_lo, n_max + 1, dtype=np.float64)
    gx, gy, gz = float(g.x), float(g.y), float(g.z)
    xx = n * gx
    yy = n * gy
    zz = n * gz + n * (n - 1) / 2.0 * gx * gy
    # multiply by x0 on the right: (a,b,c) * (x0)
    x0x, x0y, x0z = float(x0.x), float(x0.y), float(x0.z)
    zz = zz + x0z + xx * x0y
    xx = xx + x0x
    yy = yy + x0y

    def centered(t):
        k = np.ceil(t - 0.5)
        return t - k, k

    yy, b = centered(yy)
    b = -b
    zz = zz + xx * b
    xx, _ = centered(xx)
    zz, _ = centered(zz)
    return xx, yy, zz


def smooth_cell_function(center_x, center_y, width=0.25):
    """Lipschitz bump chi(x - cx) chi(y - cy) e(z), continuous on the quotient.

    The bump is supported well inside one period, so the function extends
    continuously across the fundamental-domain gluing.
    """

    def bump(t):
        t = np.abs(t - np.round(t))
        u = np.clip(1.0 - (t / (width / 2.0)) ** 2, 0.0, None)
        return u * u

    def f(x, y, z):
        # y's bump and e(z) only where x's bump is nonzero; w is +0 elsewhere
        x, y, z = np.broadcast_arrays(x, y, z)
        out = np.zeros(x.shape, dtype=complex)
        bx = bump(x - center_x).ravel()
        at = np.flatnonzero(bx)
        w = bx[at] * bump(y.ravel()[at] - center_y)
        at, w = at[w != 0], w[w != 0]
        out.ravel()[at] = w * np.exp(2j * np.pi * z.ravel()[at])
        return out

    return f


CHUNK = 2**15       # entries of n whose orbit and values are computed at a time


def _mobius_mean(n_max, tables, values):
    """E_{n <= N} mu(n) v(n), where values(lo, hi) is the array of v(n) for lo <= n <= hi.

    The products mu(n) v(n) fill one N-long array CHUNK entries at a time and
    one np.mean runs over it, so the result is that of one product over all
    n: the pairwise sum sees the same array.  mu stays int8 and is cast in
    the multiply, into the dtype that a float64 mu times v would have.
    """
    if tables.n_max < n_max:
        raise ValueError("need a mobius table up to N")
    # read mu before the value arrays exist: its first read builds the table
    mu = tables.mobius[1: n_max + 1]
    out = np.empty(0)
    for lo in range(0, n_max, CHUNK):
        vals = values(lo + 1, min(lo + CHUNK, n_max))
        if not lo:
            out = np.empty(n_max, dtype=np.result_type(np.float64, vals))
        np.multiply(mu[lo: lo + CHUNK], vals, out=out[lo: lo + CHUNK], dtype=out.dtype)
    return complex(np.mean(out))


def mobius_nil_correlation(n_max, g, x0, func, tables):
    """E_{n <= N} mu(n) F(g^n x0) along the Heisenberg orbit."""
    return _mobius_mean(n_max, tables, lambda lo, hi: func(*heisenberg_orbit_coords(g, x0, hi, lo)))


def mobius_phase_correlation(n_max, alpha, tables):
    """E_{n <= N} mu(n) e(alpha n): the s = 1 specialisation."""
    return _mobius_mean(
        n_max, tables, lambda lo, hi: np.exp(2j * np.pi * alpha * np.arange(lo, hi + 1, dtype=np.float64))
    )
