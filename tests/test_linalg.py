import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from affprimes import linalg


def test_rank_examples():
    assert linalg.rank([[1, 2], [2, 4]]) == 1
    assert linalg.rank([[1, 0], [0, 1]]) == 2


_ENTRIES = {
    "int": st.integers(-50, 50),
    "fraction": st.fractions(min_value=-50, max_value=50, max_denominator=10**6),
    "float": st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
}


@st.composite
def _rank_cases(draw, kinds=tuple(sorted(_ENTRIES)), square=False):
    """Int, Fraction or float matrices, wide or tall (or square), sparse or
    dense, with zero, duplicate and dependent rows."""
    kind = draw(st.sampled_from(kinds))
    n_cols = draw(st.integers(1, 5 if square else 7))
    entry = _ENTRIES[kind]
    if draw(st.booleans()):
        # about half the entries zero: pivots skip columns and rows sit out steps
        entry = st.one_of(st.just(0), entry)
    lo, hi = (n_cols, n_cols) if square else (1, 7)
    rows = draw(st.lists(st.lists(entry, min_size=n_cols, max_size=n_cols), min_size=lo, max_size=hi))
    for _ in range(draw(st.integers(0, 3))):
        i, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(rows) - 1))
        extra = draw(st.sampled_from(["zero", "duplicate", "dependent"]))
        if extra == "zero":
            new = [0 * x for x in rows[i]]
        elif extra == "duplicate":
            new = list(rows[i])
        else:
            a, b = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
            new = [a * x + b * y for x, y in zip(rows[i], rows[j])]
        rows.insert(draw(st.integers(0, len(rows))), new)
        if square:      # drop a row to stay square, often leaving the matrix singular
            del rows[draw(st.integers(0, len(rows) - 1))]
    return rows


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_rank_cases())
def test_rank_matches_row_echelon(rows):
    # the integer (Bareiss) rank against Fraction Gauss-Jordan elimination
    want = len(linalg._gauss_jordan(linalg.frac_rows(rows)))
    assert linalg.rank(rows) == want
    assert linalg.rank([list(col) for col in zip(*rows)]) == want


def _consistent_mod_p(rows, rhs, p):
    """rows·x = rhs is solvable over F_p iff the rhs column holds no pivot, as `local_factor` reads it."""
    return len(rows[0]) not in linalg._pivots_mod_p([row + [b] for row, b in zip(rows, rhs)], p)


def _fraction(q):
    """A sympy rational (a Rational or a QQ element) as a Fraction."""
    return Fraction(int(q.numerator), int(q.denominator))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(_rank_cases(kinds=("int",)), st.sampled_from([2, 3, 5, 7, 101]), st.data())
def test_mod_p_kernels_match_sympy(rows, p, data):
    # rank, nullspace basis and consistency over F_p against sympy's DomainMatrix over GF(p)
    pytest.importorskip("sympy")
    from sympy import GF
    from sympy.polys.matrices import DomainMatrix

    field = GF(p, symmetric=False)

    def gf(mat):
        return DomainMatrix([[field(x) for x in row] for row in mat], (len(mat), len(mat[0])), field)

    want = gf(rows)
    assert linalg.rank_mod_p(rows, p) == want.rank()
    # sympy scales each basis vector so that its last nonzero entry, the free one, is 1
    basis = want.nullspace(divide_last=True).to_list()
    assert linalg.nullspace_mod_p(rows, p) == [[field.to_int(x) for x in v] for v in basis]
    if data.draw(st.booleans()):    # a right-hand side in the image: consistent
        x = data.draw(st.lists(st.integers(-9, 9), min_size=len(rows[0]), max_size=len(rows[0])))
        rhs = [sum(a * b for a, b in zip(row, x)) for row in rows]
    else:
        rhs = data.draw(st.lists(st.integers(-9, 9), min_size=len(rows), max_size=len(rows)))
    aug = [row + [b] for row, b in zip(rows, rhs)]
    assert _consistent_mod_p(rows, rhs, p) == (gf(aug).rank() == want.rank())


@settings(max_examples=200, derandomize=True, deadline=None)
@given(_rank_cases())
def test_rational_kernels_match_sympy(rows):
    # _gauss_jordan's reduced rows and pivots, and the nullspace basis, against
    # sympy's rref and nullspace over QQ
    pytest.importorskip("sympy")
    from sympy import QQ
    from sympy.polys.matrices import DomainMatrix

    m = linalg.frac_rows(rows)
    want = DomainMatrix([[QQ(x.numerator, x.denominator) for x in row] for row in m], (len(m), len(m[0])), QQ)
    reduced, pivots = want.rref()
    assert linalg._gauss_jordan(m) == list(pivots)
    assert m == [[_fraction(x) for x in row] for row in reduced.to_list()]
    basis = want.nullspace(divide_last=True).to_list()
    assert linalg.nullspace(rows) == [[_fraction(x) for x in v] for v in basis]


@settings(max_examples=200, derandomize=True, deadline=None)
@given(_rank_cases(kinds=("int", "fraction"), square=True))
def test_det_matches_sympy(rows):
    # Bareiss det against sympy's, on the matrix and on it with two rows swapped
    sympy = pytest.importorskip("sympy")
    mat = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row] for row in rows])
    want = _fraction(mat.det())
    got = linalg.det(rows)
    assert type(got) is Fraction and got == want
    if len(rows) > 1:
        assert linalg.det([rows[1], rows[0]] + rows[2:]) == -want


def test_det_cases():
    assert linalg.det([]) == 1
    assert linalg.det([[0, 1], [1, 0]]) == -1                  # a swap before the first pivot
    assert linalg.det([[0, 0, 1], [0, 1, 0], [1, 0, 0]]) == -1
    assert linalg.det([[1, 2], [2, 4]]) == 0
    assert linalg.det([[0, 1], [0, 2]]) == 0                   # no pivot in the first column
    assert linalg.det([[Fraction(1, 2), 0], [0, Fraction(2, 3)]]) == Fraction(1, 3)


def _primitive_oracle(vec):
    """lcm of the denominators times the vector, divided by the gcd of the result."""
    fr = [Fraction(x) for x in vec]
    den = 1
    for x in fr:
        den = den * x.denominator // math.gcd(den, x.denominator)
    iv = [int(x * den) for x in fr]
    g = 0
    for x in iv:
        g = math.gcd(g, abs(x))
    return [x // g for x in iv] if g > 1 else iv


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.lists(st.one_of(st.just(0), *_ENTRIES.values()), min_size=1, max_size=6))
def test_primitive_vectors(vec):
    # _clear_halfspace keeps the sign (it scales an inequality); clear_denominators
    # makes the first nonzero entry positive
    from affprimes.geometry import _clear_halfspace

    want = _primitive_oracle(vec)
    a, c = _clear_halfspace(vec[:-1], vec[-1])
    assert (list(a) + [c]) == want and type(a) is tuple
    first = next((x for x in want if x), 0)
    assert linalg.clear_denominators(vec) == ([-x for x in want] if first < 0 else want)
    assert all(type(x) is int for x in linalg.clear_denominators(vec))


def test_solve_and_nullspace():
    x = linalg.solve([[2, 1], [1, 1]], [3, 2])
    assert x == [Fraction(1), Fraction(1)]
    assert linalg.solve([[1, 1], [1, 1]], [0, 1]) is None
    ns = linalg.nullspace([[1, 1, -2]])
    assert len(ns) == 2
    for v in ns:
        assert v[0] + v[1] - 2 * v[2] == 0


def test_clear_denominators():
    assert linalg.clear_denominators([Fraction(1, 2), Fraction(-3, 4)]) == [2, -3]
    assert linalg.clear_denominators([Fraction(-2), Fraction(4)]) == [1, -2]


def test_mod_p():
    assert linalg.rank_mod_p([[2, 4], [1, 2]], 3) == 1
    assert linalg.rank_mod_p([[2, 4], [1, 2]], 2) == 1
    assert linalg.rank_mod_p([[1, 1], [1, 2]], 5) == 2
    assert _consistent_mod_p([[1, 1]], [3], 5)
    assert not _consistent_mod_p([[2, 2], [1, 1]], [1, 1], 2)


def test_nullspace_mod_p():
    # brute force: rows x = 0 has p^(n_cols - rank) solutions over F_p.  A
    # local generator leaves the session rng stream of the other tests unchanged.
    rng = np.random.default_rng(5)
    for _ in range(200):
        p = int(rng.choice([2, 3, 5, 7]))
        n_rows, n_cols = (int(x) for x in rng.integers(1, 5, size=2))
        rows = rng.integers(-9, 10, size=(n_rows, n_cols)).tolist()
        basis = linalg.nullspace_mod_p(rows, p)
        rank = linalg.rank_mod_p(rows, p)
        assert len(basis) == n_cols - rank
        for v in basis:
            assert all(sum(a * x for a, x in zip(row, v)) % p == 0 for row in rows)
        assert linalg.rank_mod_p(basis, p) == len(basis)
        if p ** n_cols <= 2500:
            solutions = sum(
                all(sum(a * x for a, x in zip(row, xs)) % p == 0 for row in rows)
                for xs in itertools.product(range(p), repeat=n_cols)
            )
            assert solutions == p ** (n_cols - rank)


def test_smith_normal_form(rng):
    for _ in range(50):
        n, m = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        a = rng.integers(-9, 10, size=(n, m)).tolist()
        d, u, v = linalg.smith_normal_form(a)
        prod = np.array(u) @ np.array(a) @ np.array(v)
        expect = np.zeros((n, m), dtype=int)
        for i, di in enumerate(d):
            expect[i, i] = di
        assert (prod == expect).all()
        assert abs(round(np.linalg.det(np.array(u, dtype=float)))) == 1
        assert abs(round(np.linalg.det(np.array(v, dtype=float)))) == 1
        for i in range(len(d) - 1):
            if d[i] and d[i + 1]:
                assert d[i + 1] % d[i] == 0


def test_smith_normal_form_matches_sympy():
    # invariant factors against sympy's; a local generator leaves the
    # session rng stream unchanged
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors

    rng = np.random.default_rng(11)
    mats = [[[1, 0], [1, 2], [1, 4]], [[1, 0], [1, 1], [1, 2]], [[2, 4], [1, 2], [3, 6]], [[0, 0], [0, 0]]]
    for _ in range(200):
        n, m = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        mats.append(rng.integers(-9, 10, size=(n, m)).tolist())
    for a in mats:
        d, _, _ = linalg.smith_normal_form(a)
        want = [int(x) for x in invariant_factors(sympy.Matrix(a), domain=sympy.ZZ)]
        assert d == want + [0] * (len(d) - len(want))


@st.composite
def _smith_matrices(draw):
    """1-5 x 1-6 integer matrices with entries in -6..6, some rows and columns zeroed."""
    n, m = draw(st.integers(1, 5)), draw(st.integers(1, 6))
    a = draw(st.lists(st.lists(st.integers(-6, 6), min_size=m, max_size=m), min_size=n, max_size=n))
    zero_rows = draw(st.sets(st.integers(0, n - 1)))
    zero_cols = draw(st.sets(st.integers(0, m - 1)))
    return [[0 if i in zero_rows or j in zero_cols else x for j, x in enumerate(row)] for i, row in enumerate(a)]


@settings(max_examples=400, derandomize=True, deadline=None)
@given(_smith_matrices())
@example([[0, 0, 0], [0, 0, 0]])
@example([[4, 0], [0, 6], [0, 0]])
def test_smith_normal_form_without_transforms_matches(a):
    # the d-only route runs the same elimination as the route that keeps U
    # and V, whose invariant factors test_smith_normal_form_matches_sympy checks
    snapshot = [list(row) for row in a]
    assert linalg.smith_normal_form(a, transforms=False) == linalg.smith_normal_form(a)[0]
    assert a == snapshot


def test_hermite_column_lattice():
    a = [[2, 0], [0, 2]]
    b = [[2, 2], [0, 2]]
    assert linalg.same_column_lattice(a, b)
    assert not linalg.same_column_lattice(a, [[1, 0], [0, 2]])
    # permuted and recombined generators
    c = [[4, 2, 0], [2, 0, 2]]
    assert linalg.same_column_lattice([[2, 0], [0, 2]], c)
    assert not linalg.same_column_lattice([[1, 0], [0, 1]], [[1, 0]])     # different row counts


@st.composite
def _lattice_pairs(draw):
    """(a, b, spans_a): nonzero matrices a, b with 1-4 rows, 1-4 columns and
    entries -4..4.  In half the draws b is [a·U | a] with its columns shuffled,
    which spans a's lattice (spans_a True); otherwise b is drawn alone."""
    n_rows = draw(st.integers(1, 4))

    def matrix(n_cols):
        row = st.lists(st.integers(-4, 4), min_size=n_cols, max_size=n_cols)
        return draw(st.lists(row, min_size=n_rows, max_size=n_rows).filter(lambda m: any(map(any, m))))

    a = matrix(draw(st.integers(1, 4)))
    if draw(st.booleans()):
        return a, matrix(draw(st.integers(1, 4))), False
    u_cols = draw(st.lists(st.lists(st.integers(-3, 3), min_size=len(a[0]), max_size=len(a[0])),
                           min_size=1, max_size=3))
    cols = [[sum(x * y for x, y in zip(row, u)) for row in a] for u in u_cols] + [list(c) for c in zip(*a)]
    return a, [list(r) for r in zip(*draw(st.permutations(cols)))], True


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_lattice_pairs())
@example(([[1, 0, 0], [0, -1, -1], [3, 3, -1]], [[-1, 1, 0, 0], [-4, 0, -1, -1], [1, 3, 3, -1]], True))
def test_same_column_lattice_matches_sympy_hermite(case):
    # equal column lattices iff equal column-style Hermite normal forms; the
    # explicit case is b = [a·(-1, 2, 2) | a], on which a Hermite basis that
    # reduces from the last pivot up is not canonical
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import hermite_normal_form

    a, b, spans_a = case
    want = hermite_normal_form(sympy.Matrix(a)) == hermite_normal_form(sympy.Matrix(b))
    assert want or not spans_a
    assert linalg.same_column_lattice(a, b) == want
    assert linalg.same_column_lattice(b, a) == want
