"""Exact linear algebra over Q, Z and F_p for small matrices.

Matrices are plain Python lists of rows; entries may be ints, Fractions or
floats (a float is read as the exact binary rational it stores).  The
matrices that arise (coefficient matrices of affine-linear form systems)
have at most a few dozen rows and columns, but `rank` is called thousands of
times per complexity or local-data computation, so it runs fraction-free on
Python ints (Bareiss elimination).  `row_echelon` keeps Fraction arithmetic
for `solve` and `nullspace`, which need the reduced rows themselves.
"""

from fractions import Fraction
from math import gcd, lcm

from .arith import factorize


def frac_rows(rows):
    """Copy a matrix into Fraction entries."""
    return [[Fraction(x) for x in row] for row in rows]


def row_echelon(rows):
    """Reduce a Fraction matrix in place; return the list of pivot columns.

    The rank is len(pivots).
    """
    if not rows:
        return []
    n_rows, n_cols = len(rows), len(rows[0])
    pivots = []
    r = 0
    for c in range(n_cols):
        pr = None
        for i in range(r, n_rows):
            if rows[i][c] != 0:
                pr = i
                break
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = 1 / Fraction(rows[r][c])
        rows[r] = [x * inv for x in rows[r]]
        for i in range(n_rows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    return pivots


def _integer_row(row):
    """The row scaled by the lcm of its entries' denominators (a list of ints)."""
    if all(type(x) is int for x in row):
        return list(row)
    ratios = [Fraction(x).as_integer_ratio() for x in row]
    den = lcm(*(d for _, d in ratios))
    return [n * (den // d) for n, d in ratios]


def rank(rows):
    """Rank over Q by fraction-free (Bareiss) elimination on integer rows.

    Scaling a row by a nonzero integer keeps the rank.  After k pivot steps
    every live entry is a (k+1)-minor of the scaled matrix, so the division by
    the previous pivot is exact (Sylvester's identity); the entries stay
    bounded by Hadamard's bound instead of growing like products.
    """
    if not rows:
        return 0
    m = [_integer_row(row) for row in rows]
    n_rows, n_cols = len(m), len(m[0])
    r = 0
    prev = 1
    for c in range(n_cols):
        pr = next((i for i in range(r, n_rows) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        top = m[r]
        piv = top[c]
        for i in range(r + 1, n_rows):
            row = m[i]
            f = row[c]
            m[i] = [(piv * a - f * b) // prev for a, b in zip(row, top)]
        prev = piv
        r += 1
        if r == n_rows:
            break
    return r


def in_span(vec, rows):
    """True iff vec lies in the Q-span of the given row vectors."""
    if not rows:
        return all(x == 0 for x in vec)
    return rank(rows) == rank(list(rows) + [list(vec)])


def solve(rows, rhs):
    """One rational solution of rows·x = rhs, or None if inconsistent.

    Free variables are set to zero.
    """
    if not rows:
        return None
    n_cols = len(rows[0])
    aug = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    pivots = row_echelon(aug)
    if n_cols in pivots:
        return None
    x = [Fraction(0)] * n_cols
    r = 0
    for c in pivots:
        x[c] = aug[r][n_cols]
        r += 1
    return x


def nullspace(rows, n_cols=None):
    """Basis of the rational nullspace {x : rows·x = 0} (list of Fraction vectors)."""
    if not rows:
        if n_cols is None:
            raise ValueError("need n_cols for an empty matrix")
        return [[Fraction(i == j) for j in range(n_cols)] for i in range(n_cols)]
    n_cols = len(rows[0])
    m = frac_rows(rows)
    pivots = row_echelon(m)
    pivot_set = set(pivots)
    free = [c for c in range(n_cols) if c not in pivot_set]
    basis = []
    for fc in free:
        v = [Fraction(0)] * n_cols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -m[r][fc]
        basis.append(v)
    return basis


def clear_denominators(vec):
    """Scale a rational vector to a primitive integer vector, first nonzero > 0."""
    fr = [Fraction(x) for x in vec]
    den = 1
    for x in fr:
        den = den * x.denominator // gcd(den, x.denominator)
    iv = [int(x * den) for x in fr]
    g = 0
    for x in iv:
        g = gcd(g, abs(x))
    if g > 1:
        iv = [x // g for x in iv]
    for x in iv:
        if x != 0:
            if x < 0:
                iv = [-y for y in iv]
            break
    return iv


# ---------------------------------------------------------------------------
# mod-p arithmetic


def _echelon_mod_p(rows, p):
    """Forward elimination over F_p: (reduced rows, pivot columns).

    Row i of the result has a 1 in column pivots[i] and zeros before it;
    elimination stops once every row holds a pivot.
    """
    m = [[x % p for x in row] for row in rows]
    n_rows, n_cols = len(m), len(m[0])
    pivots = []
    r = 0
    for c in range(n_cols):
        pr = None
        for i in range(r, n_rows):
            if m[i][c]:
                pr = i
                break
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = pow(m[r][c], p - 2, p)
        m[r] = [(x * inv) % p for x in m[r]]
        for i in range(r + 1, n_rows):
            if m[i][c]:
                f = m[i][c]
                m[i] = [(a - f * b) % p for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    return m, pivots


def rank_mod_p(rows, p):
    """Rank of an integer matrix over F_p."""
    if not rows:
        return 0
    return len(_echelon_mod_p(rows, p)[1])


def nullspace_mod_p(rows, p):
    """Basis of {x : rows x = 0 mod p}: per free column f, x_f = 1, zeros at the
    other free columns, pivot entries by back-substitution in the echelon form.
    """
    n_cols = len(rows[0])
    m, pivots = _echelon_mod_p(rows, p)
    basis = []
    for fc in sorted(set(range(n_cols)) - set(pivots)):
        v = [0] * n_cols
        v[fc] = 1
        for row, pc in reversed(list(zip(m, pivots))):
            v[pc] = -sum(row[j] * v[j] for j in range(pc + 1, n_cols)) % p
        basis.append(v)
    return basis


def consistent_mod_p(rows, rhs, p):
    """True iff rows·x = rhs has a solution over F_p."""
    aug = [list(row) + [b] for row, b in zip(rows, rhs)]
    return rank_mod_p(rows, p) == rank_mod_p(aug, p)


# ---------------------------------------------------------------------------
# integer lattice forms


def hermite_column_basis(mat):
    """Column-style Hermite normal form of an integer matrix.

    Returns a canonical basis (list of column tuples) of the lattice spanned
    by the columns; two matrices span the same column lattice iff the results
    are equal.
    """
    n_rows = len(mat)
    cols = [list(col) for col in zip(*mat)] if n_rows else []
    cols = [c for c in cols if any(c)]
    basis = []
    row = 0
    while cols and row < n_rows:
        live = [c for c in cols if c[row] != 0]
        if not live:
            row += 1
            continue
        while True:
            live.sort(key=lambda c: abs(c[row]))
            piv = live[0]
            done = True
            for c in live[1:]:
                q = c[row] // piv[row]
                for i in range(n_rows):
                    c[i] -= q * piv[i]
                if c[row] != 0:
                    done = False
            live = [piv] + [c for c in live[1:] if c[row] != 0]
            if done or len(live) == 1:
                break
        if piv[row] < 0:
            piv = [-x for x in piv]
        basis.append(piv)
        rest = [c for c in cols if c is not piv and any(c)]
        for c in rest:
            if c[row] != 0:
                q = c[row] // piv[row]
                for i in range(n_rows):
                    c[i] -= q * piv[i]
        cols = [c for c in rest if any(c)]
        row += 1
    # reduce above-pivot entries for canonicity
    for j in range(len(basis) - 1, -1, -1):
        pr = next(i for i in range(n_rows) if basis[j][i] != 0)
        for k in range(j):
            q = basis[k][pr] // basis[j][pr]
            if q:
                basis[k] = [a - q * b for a, b in zip(basis[k], basis[j])]
    return [tuple(c) for c in basis]


def same_column_lattice(a, b):
    return hermite_column_basis(a) == hermite_column_basis(b)


def smith_normal_form(mat):
    """Smith normal form over Z: returns (d, U, V) with U·mat·V = diag(d).

    U and V are unimodular; d is the list of invariant factors (nonnegative,
    each dividing the next, zeros at the end if rank deficient).
    """
    a = [list(row) for row in mat]
    n = len(a)
    m = len(a[0]) if n else 0
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    v = [[int(i == j) for j in range(m)] for i in range(m)]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, q):
        a[dst] = [x - q * y for x, y in zip(a[dst], a[src])]
        u[dst] = [x - q * y for x, y in zip(u[dst], u[src])]

    def add_col(src, dst, q):
        for row in a:
            row[dst] -= q * row[src]
        for row in v:
            row[dst] -= q * row[src]

    t = 0
    while t < min(n, m):
        # find a nonzero pivot of minimal absolute value
        best = None
        for i in range(t, n):
            for j in range(t, m):
                if a[i][j] != 0 and (best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        swap_rows(t, best[0])
        swap_cols(t, best[1])
        while True:
            dirty = False
            for i in range(t + 1, n):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    add_row(t, i, q)
                    if a[i][t]:
                        swap_rows(t, i)
                        dirty = True
            for j in range(t + 1, m):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    add_col(t, j, q)
                    if a[t][j]:
                        swap_cols(t, j)
                        dirty = True
            if not dirty:
                break
        # pivot must divide all remaining entries
        fixed = True
        for i in range(t + 1, n):
            for j in range(t + 1, m):
                if a[i][j] % a[t][t]:
                    add_row(i, t, -1)
                    fixed = False
                    break
            if not fixed:
                break
        if fixed:
            if a[t][t] < 0:
                a[t] = [-x for x in a[t]]
                u[t] = [-x for x in u[t]]
            t += 1
    d = [a[i][i] if i < m else 0 for i in range(min(n, m))]
    return d, u, v


def invariant_factor_primes(mat):
    """Primes dividing the largest invariant factor of an integer matrix.

    These are the primes modulo which the rank drops below the rational rank.
    """
    d, _, _ = smith_normal_form(mat)
    ps = set()
    for x in d:
        if x > 1:
            ps.update(factorize(x))
    return ps
