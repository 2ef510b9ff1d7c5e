import itertools
import json
from fractions import Fraction

import numpy as np
import pytest

from affprimes import cli, counting, forms, geometry


def ap_body(k, n):
    """1 <= n1, 0 <= n2, n1 + (k-1) n2 <= N."""
    return geometry.ConvexBody(
        2, [((-1, 0), -1), ((0, -(k - 1)), 0), ((1, k - 1), n)], n
    )


def _contains(body, point):
    """a.point <= c for every halfspace of body: the membership oracle of the enumeration."""
    assert len(point) == body.dim
    return all(sum(ai * xi for ai, xi in zip(a, point)) <= c for a, c in body.halfspaces)


def _lattice_points(body):
    """The lattice points of body one at a time, in the order of its runs."""
    for prefix, lo, hi in body.runs():
        for x in range(lo, hi + 1):
            yield prefix + (x,)


def test_contains():
    box = geometry.ConvexBody.box(2, -2, 2)
    assert _contains(box, (0, 0))
    assert _contains(box, (2, -2))
    assert not _contains(box, (3, 0))
    half = geometry.ConvexBody(2, [((1, 0), 0)], 5)
    assert not _contains(half, (1, 0))
    assert _contains(half, (0, 0))
    # AP4 body boundary case 1 <= 1
    assert _contains(ap_body(4, 10), (1, 0))


def test_lattice_points_small():
    box = geometry.ConvexBody.box(1, 0, 2)
    assert sorted(_lattice_points(box)) == [(0,), (1,), (2,)]
    tri = geometry.ConvexBody(2, [((-1, 0), 0), ((0, -1), 0), ((1, 1), 2)], 3)
    assert tri.lattice_point_count() == 6
    empty = geometry.ConvexBody(2, [((1, 0), 0), ((-1, 0), -1)], 3)
    assert empty.lattice_point_count() == 0
    # 1/5 <= x1 <= 4/5: no lattice point
    sliver = geometry.ConvexBody(2, [((5, 0), 4), ((-5, 0), -1)], 10)
    assert sliver.lattice_point_count() == 0


def test_box_count_exact():
    for d in (1, 2, 3):
        for n in (3, 7):
            box = geometry.ConvexBody.box(d, 0, n)
            assert box.lattice_point_count() == (n + 1) ** d


def test_count_of_long_runs_does_not_wrap():
    # five runs of 2**61 + 1 points each: an int64 sum of their lengths wraps
    body = geometry.ConvexBody(2, [((1, 0), 2), ((-1, 0), 2)], 2**60)
    assert body.lattice_point_count() == body.lattice_point_count(body.outer_values_and_bounds()) == 5 * (2**61 + 1)


def _random_body(rng, d):
    n = int(rng.integers(1, {1: 30, 2: 12, 3: 5, 4: 3}[d] + 1))
    hs = [
        ([int(x) for x in rng.integers(-4, 5, size=d)], int(rng.integers(-2 * n, 2 * n + 1)))
        for _ in range(int(rng.integers(0, 5)))
    ]
    kind = rng.integers(0, 10)
    if kind == 0:
        hs.append(([0] * d, -1))                                  # infeasible marker
    elif kind == 1:
        hs += [([1] + [0] * (d - 1), 0), ([-1] + [0] * (d - 1), -1)]   # empty, no marker
    return geometry.ConvexBody(d, hs, n)


def test_enumeration_consistent_with_contains(monkeypatch):
    # exhaustive in the bounding box; the small RUN_BLOCK splits the children
    # of single rows across blocks.  A local generator leaves the session
    # rng stream of the other tests unchanged.
    rng = np.random.default_rng(3)
    bodies = [geometry.ConvexBody(2, [((2, 3), 25), ((-1, 1), 4), ((0, -1), 2)], 20)]
    bodies += [_random_body(rng, d) for d in (1, 2, 3, 4) for _ in range(15)]
    for run_block, body in itertools.product((geometry.RUN_BLOCK, 3), bodies):
        monkeypatch.setattr(geometry, "RUN_BLOCK", run_block)
        d, n = body.dim, body.box_bound
        brute = [
            p for p in itertools.product(range(-n, n + 1), repeat=d) if _contains(body, p)
        ]
        assert list(_lattice_points(body)) == brute       # same points, lexicographic
        assert body.lattice_point_count() == body.lattice_point_count(body.outer_values_and_bounds()) == len(brute)
        for prefix, lo, hi in body.run_blocks():
            assert prefix.shape == (len(lo), d - 1) and 0 < len(lo) <= run_block
            assert (lo <= hi).all()
        coeffs = rng.integers(1, 4, size=(2, d)) * rng.choice([-1, 1], size=(2, d))
        sys_ = forms.system(coeffs.tolist(), [0, 1])
        assert counting.weighted_count(sys_, body, ["one", "one"]) == len(brute)


def _subset_vertex_range(body, coeffs, const):
    """(min, max) of an affine functional over every feasible dim-subset solution."""
    from affprimes import linalg

    hs = body.halfspaces
    vals = []
    for subset in itertools.combinations(range(len(hs)), body.dim):
        rows = [list(hs[i][0]) for i in subset]
        if linalg.rank(rows) != body.dim:
            continue
        x = linalg.solve(rows, [hs[i][1] for i in subset])
        if all(sum(a * xi for a, xi in zip(hs[i][0], x)) <= hs[i][1] for i in range(len(hs))):
            vals.append(sum(Fraction(c) * xi for c, xi in zip(coeffs, x)) + const)
    return (min(vals), max(vals)) if vals else (None, None)


def test_vertices_match_subset_enumeration():
    # the cached vertices give the same exact form ranges as solving every
    # dim-subset of halfspaces; empty bodies have no vertices
    rng = np.random.default_rng(6)
    bodies = [_random_body(rng, d) for d in (1, 2, 3) for _ in range(40)]
    assert any(not b.vertices() for b in bodies) and any(b.vertices() for b in bodies)
    for body in bodies:
        verts = body.vertices()
        assert len(set(verts)) == len(verts) and body.vertices() is verts
        assert all(_contains(body, v) for v in verts)
        for _ in range(3):
            coeffs = [int(x) for x in rng.integers(-5, 6, size=body.dim)]
            const = int(rng.integers(-9, 10))
            got = counting.affine_range_over_body(body, coeffs, const)
            assert got == _subset_vertex_range(body, coeffs, const)
        if not verts:
            assert body.lattice_point_count() == 0


def test_int64_guard_rejects_overflowing_bodies(tmp_path):
    # 3e18 * x1 + x2 <= 6e18 + 3 over [-10, 10]^2 has 136 points, but its
    # bounds overflow int64 arithmetic; it is rejected instead of miscounted
    hs = [((0, -1), 0), ((3 * 10**18, 1), 6 * 10**18 + 3)]
    body = geometry.ConvexBody(2, hs, 10)
    with pytest.raises(ValueError, match="int64"):
        body.lattice_point_count()
    with pytest.raises(ValueError, match="int64"):
        counting.weighted_count(forms.identity_system(2), body, ["one", "one"])
    cfg = {
        "N": 10,
        "system": {"d": 2, "t": 2, "forms": [
            {"coeffs": [1, 0], "const": 0}, {"coeffs": [0, 1], "const": 0}]},
        "body": geometry.convex_body_to_json(body),
        "weights": ["one", "one"],
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["count", "--config", str(path), "--out", str(tmp_path / "out")]) == 1


def test_dimension_guard():
    with pytest.raises(ValueError):
        list(geometry.ConvexBody.box(7, 0, 1).runs())


def test_archimedean_factor_ap4():
    n = 3000
    body = ap_body(4, n)
    count, frac = geometry.archimedean_factor(body, forms.ap_system(4))
    assert abs(count - n**2 / 6) <= 0.01 * n**2 / 6
    assert frac == pytest.approx(count / n**2)


def test_archimedean_factor_trivial_cases():
    n = 40
    box = geometry.ConvexBody.box(2, 0, n)
    ident = forms.identity_system(2)
    count, _ = geometry.archimedean_factor(box, ident)
    assert count == n**2        # psi_i >= 1 trims one hyperplane each
    neg = forms.system([[-1, 0]], [0])
    count, _ = geometry.archimedean_factor(box, neg)
    assert count == 0


def test_volume_packing_random_simplices(rng):
    # |count - vol| <= C_d N^{d-1} with vol by the exact determinant formula
    c_d = {2: 12, 3: 40}
    for d in (2, 3):
        for _ in range(12):
            n = int(rng.integers(8, 30))
            while True:
                verts = [
                    [Fraction(int(rng.integers(-n, n + 1))) for _ in range(d)]
                    for _ in range(d + 1)
                ]
                vol = geometry.volume_simplex(verts)
                if vol > 0:
                    break
            body = geometry.simplex_body(verts, n)
            count = body.lattice_point_count()
            assert abs(count - float(vol)) <= c_d[d] * n ** (d - 1)


def test_body_json_roundtrip():
    obj = {
        "dim": 2,
        "halfspaces": [
            {"a": [-1, 0], "c": -1},
            {"a": [1, 3], "c": {"times_N": 1}},
            {"a": ["1/2", 0], "c": "7/2"},
        ],
        "N": 50,
    }
    body = geometry.convex_body_from_json(obj)
    assert _contains(body, (1, 0))
    assert _contains(body, (7, 0))
    assert not _contains(body, (8, 0))        # x1/2 <= 7/2
    back = geometry.convex_body_to_json(body)
    body2 = geometry.convex_body_from_json(back)
    assert body2.halfspaces == body.halfspaces


def test_degenerate_segment_body():
    # lower-dimensional bodies enumerate by exact membership, no special case
    seg = geometry.ConvexBody(
        2, [((1, 0), 2), ((-1, 0), -2), ((0, -1), 0), ((0, 1), 3)], 5
    )
    assert sorted(_lattice_points(seg)) == [(2, 0), (2, 1), (2, 2), (2, 3)]
