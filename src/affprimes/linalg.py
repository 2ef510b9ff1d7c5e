"""Exact linear algebra over Q, Z and F_p for small matrices.

Matrices are plain Python lists of rows; entries may be ints, Fractions or
floats (a float is read as the exact binary rational it stores).  The
matrices that arise (coefficient matrices of affine-linear form systems)
have at most a few dozen rows and columns.  There are two elimination
kernels.  `_gauss_jordan` reduces rows over a field, Q (Fraction entries) or
F_p (ints mod p); `solve`, the nullspaces and the mod-p rank (and, through
`_pivots_mod_p`, the rank and consistency tests of `local_factor`) read their
answers off its reduced rows.  `_bareiss` runs fraction-free on Python ints
and gives `rank` and `det`; `forms.complexity` calls `rank` once per subset
of its t forms.  There is one integer normal form, `smith_normal_form`; only
`forms.parameterize_matrix_system` reads its U and V, and the other callers
(`same_column_lattice`, the local-factor profiles, `exceptional_primes`,
counting's unimodularity check) pass transforms=False.
"""

from fractions import Fraction
from math import gcd, lcm, prod


def frac_rows(rows):
    """Copy a matrix into Fraction entries."""
    return [[Fraction(x) for x in row] for row in rows]


def _gauss_jordan(m, p=None):
    """Reduce m in place over Q (p None, Fraction entries) or F_p (entries in
    [0, p)); return the list of pivot columns.

    Row i of the result has a 1 in column pivots[i] and zeros in every other
    pivot column; elimination stops once every row holds a pivot.
    """
    n_rows = len(m)
    pivots = []
    for c in range(len(m[0]) if m else 0):
        r = len(pivots)
        pr = next((i for i in range(r, n_rows) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        if p:
            inv = pow(m[r][c], -1, p)
            top = m[r] = [x * inv % p for x in m[r]]
        else:
            inv = 1 / Fraction(m[r][c])
            top = m[r] = [x * inv for x in m[r]]
        for i in range(n_rows):
            f = m[i][c]
            if i != r and f:
                m[i] = ([(a - f * b) % p for a, b in zip(m[i], top)] if p
                        else [a - f * b for a, b in zip(m[i], top)])
        pivots.append(c)
        if r + 1 == n_rows:
            break
    return pivots


def _kernel(m, p=None):
    """Nullspace basis of the matrix m over Q (p None) or F_p, reducing m in place.

    Per free column f: x_f = 1, zeros at the other free columns, and minus the
    reduced row's entry in column f at that row's pivot column.
    """
    n_cols = len(m[0])
    pivots = _gauss_jordan(m, p)
    zero, one = (0, 1) if p else (Fraction(0), Fraction(1))
    basis = []
    for fc in sorted(set(range(n_cols)).difference(pivots)):
        v = [zero] * n_cols
        v[fc] = one
        for row, pc in zip(m, pivots):
            v[pc] = -row[fc] % p if p else -row[fc]
        basis.append(v)
    return basis


def _integer_row(row):
    """(ints, den): the row scaled by the lcm den of its entries' denominators."""
    if all(type(x) is int for x in row):
        return list(row), 1
    ratios = [Fraction(x).as_integer_ratio() for x in row]
    den = lcm(*(d for _, d in ratios))
    return [n * (den // d) for n, d in ratios], den


def _bareiss(m):
    """(rank, det) of an integer matrix by fraction-free (Bareiss) elimination, in place.

    After k pivot steps every live entry is a (k+1)-minor of m, so the division
    by the previous pivot is exact (Sylvester's identity); the entries stay
    bounded by Hadamard's bound instead of growing like products.  For a
    square matrix of full rank the last pivot is the determinant up to the
    sign of the row swaps; det is 0 for any other shape or rank.
    """
    n_rows, n_cols = len(m), len(m[0]) if m else 0
    r, prev, sign = 0, 1, 1
    for c in range(n_cols):
        pr = next((i for i in range(r, n_rows) if m[i][c]), None)
        if pr is None:
            continue
        if pr != r:
            m[r], m[pr] = m[pr], m[r]
            sign = -sign
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
    return r, sign * prev if r == n_rows == n_cols else 0


def rank(rows):
    """Rank over Q.  Scaling a row by a nonzero integer keeps the rank."""
    return _bareiss([_integer_row(row)[0] for row in rows])[0]


def det(rows):
    """Determinant of a square rational matrix, as a Fraction (1 for 0 x 0)."""
    scaled = [_integer_row(row) for row in rows]
    return Fraction(_bareiss([ints for ints, _ in scaled])[1], prod(den for _, den in scaled))


def solve(rows, rhs):
    """One rational solution of rows·x = rhs, or None if inconsistent.

    Free variables are set to zero.
    """
    if not rows:
        return None
    n_cols = len(rows[0])
    aug = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    pivots = _gauss_jordan(aug)
    if n_cols in pivots:
        return None
    x = [Fraction(0)] * n_cols
    for row, c in zip(aug, pivots):
        x[c] = row[n_cols]
    return x


def nullspace(rows, n_cols=None):
    """Basis of the rational nullspace {x : rows·x = 0} (list of Fraction vectors)."""
    if not rows:
        if n_cols is None:
            raise ValueError("need n_cols for an empty matrix")
        return [[Fraction(i == j) for j in range(n_cols)] for i in range(n_cols)]
    return _kernel(frac_rows(rows))


def _primitive(vec):
    """The rational vector times a positive rational: integers with gcd 1 (0 stays 0)."""
    iv = _integer_row(vec)[0]
    g = gcd(*iv)
    return [x // g for x in iv] if g > 1 else iv


def clear_denominators(vec):
    """Scale a rational vector to a primitive integer vector, first nonzero > 0."""
    iv = _primitive(vec)
    return [-x for x in iv] if next((x for x in iv if x), 0) < 0 else iv


# ---------------------------------------------------------------------------
# mod-p arithmetic


def _pivots_mod_p(rows, p):
    """Pivot columns of the rows reduced over F_p."""
    return _gauss_jordan([[x % p for x in row] for row in rows], p)


def rank_mod_p(rows, p):
    """Rank of an integer matrix over F_p."""
    return len(_pivots_mod_p(rows, p))


def nullspace_mod_p(rows, p):
    """Basis of {x : rows x = 0 mod p}, read off the reduced rows as in `nullspace`."""
    return _kernel([[x % p for x in row] for row in rows], p)


# ---------------------------------------------------------------------------
# integer lattice forms


def smith_normal_form(mat, *, transforms=True):
    """Smith normal form over Z: returns (d, U, V) with U·mat·V = diag(d).

    U and V are unimodular; d is the list of invariant factors (nonnegative,
    each dividing the next, zeros at the end if rank deficient).  With
    transforms=False the same elimination skips every update of U and V and
    returns d alone.
    """
    a = [list(row) for row in mat]
    n = len(a)
    m = len(a[0]) if n else 0
    u = [[int(i == j) for j in range(n)] for i in range(n)] if transforms else []
    v = [[int(i == j) for j in range(m)] for i in range(m)] if transforms else []

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        if transforms:
            u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, q):
        a[dst] = [x - q * y for x, y in zip(a[dst], a[src])]
        if transforms:
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
                if transforms:
                    u[t] = [-x for x in u[t]]
            t += 1
    d = [a[i][i] if i < m else 0 for i in range(min(n, m))]
    return (d, u, v) if transforms else d


def same_column_lattice(a, b):
    """True iff the columns of the integer matrices a and b span the same lattice.

    L(a) and L(b) lie in L(c) for c = [a | b].  The rank is the number of
    nonzero Smith invariant factors and their product is the index of the
    lattice in its saturation, which depends only on the rational span; so a
    sublattice of equal rank and equal product is the whole lattice.
    """
    if len(a) != len(b):
        return False

    def invariants(mat):
        d = [x for x in smith_normal_form(mat, transforms=False) if x]
        return len(d), prod(d)

    return invariants(a) == invariants(b) == invariants([[*ra, *rb] for ra, rb in zip(a, b)])
