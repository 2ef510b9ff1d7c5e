import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affprimes import linalg


def test_rank_and_span():
    assert linalg.rank([[1, 2], [2, 4]]) == 1
    assert linalg.rank([[1, 0], [0, 1]]) == 2
    assert linalg.in_span([1, 2], [[2, 4]])
    assert not linalg.in_span([1, 0], [[0, 1]])
    assert linalg.in_span([0, 0], [])


_ENTRIES = {
    "int": st.integers(-50, 50),
    "fraction": st.fractions(min_value=-50, max_value=50, max_denominator=10**6),
    "float": st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
}


@st.composite
def _rank_cases(draw):
    """Int, Fraction or float matrices, wide or tall, sparse or dense, with zero,
    duplicate and dependent rows."""
    kind = draw(st.sampled_from(sorted(_ENTRIES)))
    n_cols = draw(st.integers(1, 7))
    entry = _ENTRIES[kind]
    if draw(st.booleans()):
        # about half the entries zero: pivots skip columns and rows sit out steps
        entry = st.one_of(st.just(0), entry)
    rows = draw(st.lists(st.lists(entry, min_size=n_cols, max_size=n_cols), min_size=1, max_size=7))
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
    return rows


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_rank_cases())
def test_rank_matches_row_echelon(rows):
    # the integer (Bareiss) rank against Fraction Gauss-Jordan elimination
    want = len(linalg.row_echelon(linalg.frac_rows(rows)))
    assert linalg.rank(rows) == want
    assert linalg.rank([list(col) for col in zip(*rows)]) == want


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
    assert linalg.consistent_mod_p([[1, 1]], [3], 5)
    assert not linalg.consistent_mod_p([[2, 2], [1, 1]], [1, 1], 2)


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


def test_hermite_column_lattice():
    a = [[2, 0], [0, 2]]
    b = [[2, 2], [0, 2]]
    assert linalg.same_column_lattice(a, b)
    assert not linalg.same_column_lattice(a, [[1, 0], [0, 2]])
    # permuted and recombined generators
    c = [[4, 2, 0], [2, 0, 2]]
    assert linalg.same_column_lattice([[2, 0], [0, 2]], c)


def test_invariant_factor_primes():
    def fac(n):
        out = set()
        p = 2
        while p * p <= n:
            while n % p == 0:
                out.add(p)
                n //= p
            p += 1
        if n > 1:
            out.add(n)
        return out

    ps = linalg.invariant_factor_primes([[2, 0], [0, 6]])
    assert ps == {2, 3}
    assert linalg.invariant_factor_primes([[1, 0], [0, 1]]) == set()
    # random matrices: the primes of the invariant factors, by trial division
    rng = np.random.default_rng(15)
    for _ in range(200):
        mat = rng.integers(-30, 31, size=rng.integers(1, 5, 2)).tolist()
        d, _, _ = linalg.smith_normal_form(mat)
        assert linalg.invariant_factor_primes(mat) == set().union(*(fac(abs(x)) for x in d if abs(x) > 1))
