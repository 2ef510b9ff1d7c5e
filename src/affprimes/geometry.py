"""Bounded rational polytopes and exact lattice-point enumeration.

Bodies are intersections of halfspaces a.x <= c together with the box
[-N, N]^d, so everything is bounded.  Halfspaces are cleared to integer
coefficients at construction.  One enumerator, ConvexBody.run_blocks,
serves every dimension: it walks coordinates in ascending index order (x1
outermost), bounding each coordinate by Fourier-Motzkin elimination of the
later ones, and yields the lattice points as runs of the last coordinate in
int64 blocks of at most RUN_BLOCK rows, so working memory stays bounded.
Bound computations are exact: bodies whose int64 arithmetic could overflow
(|c| + sum |a_j| N >= 2^62 for some eliminated halfspace) are rejected with
ValueError.
"""

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import factorial

import numpy as np

from . import linalg

ENUM_DIM_GUARD = 6
RUN_BLOCK = 4096                # runs per enumeration block; bounds working memory
_INT64_BOUND_LIMIT = 2**62


def _clear_halfspace(a, c):
    """Scale (a, c) by a positive rational to integers with content 1."""
    *a, c = linalg._primitive([*a, c])
    return tuple(a), c


@dataclass
class ConvexBody:
    dim: int
    halfspaces: list          # list of (a: tuple of ints, c: int), a.x <= c
    box_bound: int

    def __init__(self, dim, halfspaces, box_bound):
        self.dim = int(dim)
        self.box_bound = int(box_bound)
        hs = []
        for a, c in halfspaces:
            if len(a) != self.dim:
                raise ValueError("halfspace dimension mismatch")
            a, c = _clear_halfspace(a, c)
            if not any(a):
                if c < 0:
                    hs.append((tuple([0] * self.dim), -1))   # infeasible marker
                continue
            hs.append((a, c))
        for j in range(self.dim):
            e = [0] * self.dim
            e[j] = 1
            hs.append((tuple(e), self.box_bound))
            e[j] = -1
            hs.append((tuple(e), self.box_bound))
        # dedupe, keep tightest bound per direction
        best = {}
        for a, c in hs:
            if a in best:
                best[a] = min(best[a], c)
            else:
                best[a] = c
        self.halfspaces = sorted(best.items())
        self._chain = None
        self._vertices = None

    # -- construction helpers -------------------------------------------------

    @classmethod
    def box(cls, dim, lo, hi, box_bound=None):
        """Axis box prod [lo_j, hi_j]."""
        lo = list(lo) if hasattr(lo, "__len__") else [lo] * dim
        hi = list(hi) if hasattr(hi, "__len__") else [hi] * dim
        bb = box_bound if box_bound is not None else max(
            [abs(x) for x in lo] + [abs(x) for x in hi] + [1]
        )
        hs = []
        for j in range(dim):
            e = [0] * dim
            e[j] = 1
            hs.append((tuple(e), hi[j]))
            e[j] = -1
            hs.append((tuple(e), -lo[j]))
        return cls(dim, hs, bb)

    def intersect(self, halfspaces):
        return ConvexBody(self.dim, list(self.halfspaces) + list(halfspaces), self.box_bound)

    def permuted(self, perm):
        """The body in reordered coordinates: new coordinate j is old coordinate perm[j].

        The box [-N, N]^d is invariant, so lattice points map one to one.
        """
        return ConvexBody(self.dim, [(tuple(a[p] for p in perm), c) for a, c in self.halfspaces],
                          self.box_bound)

    def with_positive_forms(self, sys):
        """Intersect with {psi_i >= 1 for all i} (integer positivity)."""
        hs = [
            (tuple(-c for c in f.linear_coeffs), f.constant - 1) for f in sys.forms
        ]
        return self.intersect(hs)

    def vertices(self):
        """The distinct vertices of K as tuples of exact Fractions (cached); [] if K is empty.

        Every dim-sized subset of halfspaces with independent normals gives a
        candidate point; the feasible ones are the vertices.
        """
        if self._vertices is None:
            hs = self.halfspaces
            found = {}
            for subset in itertools.combinations(hs, self.dim):
                rows = [list(a) for a, _ in subset]
                if linalg.rank(rows) != self.dim:
                    continue
                x = linalg.solve(rows, [c for _, c in subset])
                if all(sum(ai * xi for ai, xi in zip(a, x)) <= c for a, c in hs):
                    found[tuple(x)] = None
            self._vertices = list(found)
        return self._vertices

    # -- Fourier-Motzkin chain ---------------------------------------------------

    def _fm_chain(self):
        """Per level k, int64 arrays (a, c) of the halfspaces a.(x1..x_{k+1}) <= c
        with a[k] != 0 left after eliminating the later coordinates.

        An empty list means elimination reached 0 <= c < 0 (the body is
        empty).  Bodies whose int64 bound arithmetic could overflow are
        rejected here: every halfspace needs |c| + sum |a_j| N < 2^62.
        """
        if self._chain is not None:
            return self._chain
        levels = [dict(self.halfspaces)]
        for k in range(self.dim - 1, 0, -1):
            cur = levels[0].items()
            pos = [(a, c) for a, c in cur if a[k] > 0]
            neg = [(a, c) for a, c in cur if a[k] < 0]
            # eliminate x_{k+1}: -an[k] * (ap, cp) + ap[k] * (an, cn) removes it
            combined = [(a[:k], c) for a, c in cur if a[k] == 0] + [
                ([-an[k] * ap[j] + ap[k] * an[j] for j in range(k)], -an[k] * cp + ap[k] * cn)
                for (ap, cp), (an, cn) in itertools.product(pos, neg)
            ]
            nxt = {}
            for a, c in combined:
                a, c = _clear_halfspace(a, c)
                if any(a) or c < 0:
                    nxt[a] = min(nxt.get(a, c), c)
            levels.insert(0, nxt)
        rows = [(a, c) for level in levels for a, c in level.items()]
        if any(not any(a) for a, _ in rows):
            self._chain = []
            return self._chain
        if any(abs(c) + sum(map(abs, a)) * self.box_bound >= _INT64_BOUND_LIMIT for a, c in rows):
            raise ValueError(f"halfspaces too large for int64 enumeration at N = {self.box_bound}")
        self._chain = [
            (
                np.array([a for a in level if a[k]], dtype=np.int64).reshape(-1, k + 1),
                np.array([c for a, c in level.items() if a[k]], dtype=np.int64),
            )
            for k, level in enumerate(levels)
        ]
        return self._chain

    # -- enumeration --------------------------------------------------------------

    def run_blocks(self):
        """Yield (prefix, lo, hi) int64 blocks of at most RUN_BLOCK runs.

        prefix is a (rows, dim-1) matrix of the leading coordinates; row r is
        the run {(prefix[r], x) : lo[r] <= x <= hi[r]} of the last coordinate.
        Runs come in lexicographic order of their prefix; empty runs are left
        out.
        """
        if self.dim > ENUM_DIM_GUARD:
            raise ValueError(f"enumeration limited to dimension <= {ENUM_DIM_GUARD}")
        chain = self._fm_chain()
        if chain:
            yield from _blocks(chain, np.zeros((1, 0), np.int64), 0)

    def runs(self):
        """The runs of run_blocks() one at a time, as (prefix tuple, lo, hi) ints."""
        for prefix, lo, hi in self.run_blocks():
            yield from zip(map(tuple, prefix.tolist()), lo.tolist(), hi.tolist())

    def lattice_point_count(self, runs=None):
        """The number of lattice points of K, read off runs (outer_values_and_bounds()) when given."""
        total = 0
        for _, lo, hi in self.run_blocks() if runs is None else [runs]:
            # exact: a run is shorter than 2**63 (|x| < 2**62), and the 32-bit halves
            # of fewer than 2**31 runs sum in int64 without wrapping
            n = hi - lo + 1
            total += (int((n >> 32).sum()) << 32) + int((n & 0xFFFFFFFF).sum())
        return total

    def outer_values_and_bounds(self):
        """All runs at once: (prefix matrix, lo array, hi array)."""
        empty = np.zeros((0, self.dim), np.int64)
        blocks = [(empty[:, 1:], empty[:, 0], empty[:, 0]), *self.run_blocks()]
        return tuple(np.concatenate(part) for part in zip(*blocks))


def _level_bounds(level, prefix, k):
    """Integer bounds (lo, hi) of x_{k+1}, one pair per row of the k-column prefix."""
    a, c = level
    rest = c - prefix @ a[:, :k].T
    ak = a[:, k]
    up = ak > 0
    hi = np.floor_divide(rest[:, up], ak[up]).min(axis=1)
    lo = -np.floor_divide(rest[:, ~up], -ak[~up]).min(axis=1)    # ceil(rest/ak), ak < 0
    return lo, hi


def _blocks(chain, prefix, k):
    """Runs below the rows of prefix, level by level, RUN_BLOCK rows at a time.

    The children of the surviving rows are numbered consecutively (each row's
    x_{k+1} values in order); each slice of RUN_BLOCK child numbers finds its
    parent rows by searchsorted on the cumulative child counts.
    """
    lo, hi = _level_bounds(chain[k], prefix, k)
    keep = lo <= hi
    prefix, lo, hi = prefix[keep], lo[keep], hi[keep]
    if k == len(chain) - 1:
        if len(lo):
            yield prefix, lo, hi
        return
    counts = hi - lo + 1
    ends = np.cumsum(counts)
    shift = lo - (ends - counts)        # child j of row r has x_{k+1} = j + shift[r]
    total = int(ends[-1]) if len(ends) else 0
    for start in range(0, total, RUN_BLOCK):
        child = np.arange(start, min(start + RUN_BLOCK, total), dtype=np.int64)
        parent = np.searchsorted(ends, child, side="right")
        yield from _blocks(
            chain, np.column_stack([prefix[parent], child + shift[parent]]), k + 1
        )


# ---------------------------------------------------------------------------
# archimedean factor and simplices


def archimedean_factor(body, sys):
    """Lattice-point count of K intersected with {psi_i > 0 for all i}.

    Returns (count, count / N^dim).  The count approximates the archimedean
    volume factor to O(N^{dim-1}).
    """
    pos = body.with_positive_forms(sys)
    count = pos.lattice_point_count()
    return count, count / float(body.box_bound) ** body.dim


def volume_simplex(vertices):
    """Exact volume |det| / d! of a simplex given d+1 rational vertices."""
    d = len(vertices) - 1
    rows = [
        [Fraction(vertices[i + 1][j]) - Fraction(vertices[0][j]) for j in range(d)]
        for i in range(d)
    ]
    return abs(linalg.det(rows)) / factorial(d)


def simplex_body(vertices, box_bound):
    """ConvexBody for the simplex with the given rational vertices (full-dim)."""
    d = len(vertices) - 1
    verts = [[Fraction(x) for x in v] for v in vertices]
    hs = []
    for drop in range(d + 1):
        face = [verts[i] for i in range(d + 1) if i != drop]
        # normal via nullspace of difference vectors
        diffs = [[face[i + 1][j] - face[0][j] for j in range(d)] for i in range(d - 1)]
        normal = linalg.nullspace(diffs, n_cols=d)[0]
        c = sum(n * x for n, x in zip(normal, face[0]))
        inside = sum(n * x for n, x in zip(normal, verts[drop]))
        if inside > c:
            normal = [-x for x in normal]
            c = -c
        hs.append((normal, c))
    return ConvexBody(d, hs, box_bound)


# ---------------------------------------------------------------------------
# JSON schema


def _parse_rational(x, n_scale):
    if isinstance(x, dict):
        if set(x) != {"times_N"}:
            raise ValueError(f"bad rational spec {x!r}")
        if n_scale is None:
            raise ValueError("times_N used but no scale N available")
        return Fraction(x["times_N"]) * n_scale
    if isinstance(x, str):
        return Fraction(x)
    return Fraction(x)


def convex_body_from_json(obj, n_scale=None):
    n = obj.get("N", n_scale)
    if n is None:
        raise ValueError("body JSON must carry N (or a scale must be supplied)")
    hs = []
    for h in obj.get("halfspaces", []):
        a = [_parse_rational(x, n) for x in h["a"]]
        c = _parse_rational(h["c"], n)
        hs.append((a, c))
    return ConvexBody(obj["dim"], hs, n)


def convex_body_to_json(body):
    return {
        "dim": body.dim,
        "halfspaces": [{"a": list(a), "c": c} for a, c in body.halfspaces],
        "N": body.box_bound,
    }
