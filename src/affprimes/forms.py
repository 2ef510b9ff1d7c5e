"""Systems of affine-linear forms on Z^d.

A form is psi(n) = <coeffs, n> + const.  Complexity, normal forms and the
matrix-system parameterization all reduce to exact rational linear algebra
on the homogeneous parts, so everything in this module is integer/Fraction
arithmetic; no floats.
"""

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import inf

from . import linalg

MAX_FORMS_FOR_COMPLEXITY = 20


def _integer(x):
    """x as an int; a ValueError unless x is integral (2 and 2.0 are; 2.5, inf and "2" are not)."""
    if isinstance(x, float) and not x.is_integer() or int(x) != x:
        raise ValueError(f"form coefficients and constants must be integers, not {x!r}")
    return int(x)


@dataclass(frozen=True)
class AffineForm:
    linear_coeffs: tuple
    constant: int = 0

    def __post_init__(self):
        object.__setattr__(self, "linear_coeffs", tuple(map(_integer, self.linear_coeffs)))
        object.__setattr__(self, "constant", _integer(self.constant))
        if not any(self.linear_coeffs):
            raise ValueError("affine form must be non-constant")

    @property
    def d(self):
        return len(self.linear_coeffs)

    def __call__(self, point):
        if len(point) != self.d:
            raise ValueError("dimension mismatch")
        return sum(c * x for c, x in zip(self.linear_coeffs, point)) + self.constant

    def parallel_to(self, other):
        """True iff the homogeneous parts are rational multiples of each other."""
        return linalg.rank([self.linear_coeffs, other.linear_coeffs]) < 2

    def __str__(self):
        terms = []
        for j, c in enumerate(self.linear_coeffs):
            if c:
                s = {1: "", -1: "-"}.get(c, str(c))
                terms.append(f"{s}n{j + 1}")
        if self.constant or not terms:
            terms.append(str(self.constant))
        out = terms[0]
        for t in terms[1:]:
            out += t if t.startswith("-") else "+" + t
        return out


@dataclass(frozen=True)
class FormSystem:
    forms: tuple
    check_pairwise_independent: bool = False

    def __post_init__(self):
        object.__setattr__(self, "forms", tuple(self.forms))
        if not self.forms:
            raise ValueError("empty system")
        d = self.forms[0].d
        if any(f.d != d for f in self.forms):
            raise ValueError("forms live on different Z^d")
        if self.check_pairwise_independent:
            rows = [f.linear_coeffs + (f.constant,) for f in self.forms]
            for i, j in itertools.combinations(range(len(rows)), 2):
                if linalg.rank([rows[i], rows[j]]) < 2:
                    raise ValueError(f"forms {i} and {j} are rational multiples")

    @property
    def d(self):
        return self.forms[0].d

    @property
    def t(self):
        return len(self.forms)

    def coefficient_matrix(self):
        """t x d integer matrix of homogeneous parts."""
        return [list(f.linear_coeffs) for f in self.forms]

    def constants(self):
        return [f.constant for f in self.forms]

    def __str__(self):
        return "(" + ", ".join(str(f) for f in self.forms) + ")"


def system(rows, constants=None):
    """Convenience constructor from coefficient rows and constants, one per row."""
    constants = constants or [0] * len(rows)
    return FormSystem(tuple(AffineForm(r, c) for r, c in zip(rows, constants, strict=True)))


def ap_system(k):
    """(n1, n1+n2, ..., n1+(k-1)n2): arithmetic progressions of length k."""
    return system([[1, j] for j in range(k)])


def identity_system(d):
    return system([[int(i == j) for j in range(d)] for i in range(d)])


def balog_system(d):
    """(n_i + n_j + 1)_{1<=i<=j<=d}."""
    rows, consts = [], []
    for i in range(d):
        for j in range(i, d):
            row = [0] * d
            row[i] += 1
            row[j] += 1
            rows.append(row)
            consts.append(1)
    return system(rows, consts)


def cube_system(d):
    """(n1 + sum_{j in A} n_j)_{A subset of {2..d}}: (d-1)-dimensional cubes."""
    rows = []
    for mask in range(2 ** (d - 1)):
        row = [0] * d
        row[0] = 1
        for j in range(d - 1):
            if mask >> j & 1:
                row[j + 1] += 1
        rows.append(row)
    return system(rows)


def vinogradov_system(n_value):
    """(n1, n2, N - n1 - n2): three primes summing to N."""
    return system([[1, 0], [0, 1], [-1, -1]], [0, 0, n_value])


# ---------------------------------------------------------------------------
# complexity


@dataclass
class ComplexityResult:
    per_index: list
    overall: object
    witnesses: dict = field(default_factory=dict)   # i -> list of index-classes


def _subset_ranks(rows):
    """Q-rank of the rows picked by every subset mask (bit k picks rows[k])."""
    ranks = [0] * (1 << len(rows))
    for mask in range(1, 1 << len(rows)):
        ranks[mask] = linalg.rank([row for k, row in enumerate(rows) if mask >> k & 1])
    return ranks


def i_complexity(sys, i, with_witness=False, ranks=None):
    """Least s with [t]\\{i} coverable by s+1 classes avoiding psi_i's span.

    Covers and partitions give the same optimum (admissible subsets are
    downward closed), so this is a minimum set partition, solved by bitmask
    DP over subsets of the other t-1 forms.  A class S avoids psi_i's span
    iff rank(S + {i}) != rank(S), both read from `ranks`, the `_subset_ranks`
    table of the t forms (built here unless the caller passes it).
    """
    t = sys.t
    if not (0 <= i < t):
        raise IndexError("form index out of range")
    if t > MAX_FORMS_FOR_COMPLEXITY:
        raise ValueError(f"complexity search limited to t <= {MAX_FORMS_FOR_COMPLEXITY}")
    others = [j for j in range(t) if j != i]
    # infinite complexity iff psi_i is parallel to some single other form
    for j in others:
        if sys.forms[i].parallel_to(sys.forms[j]):
            return (inf, None) if with_witness else inf
    n = len(others)
    if n == 0:
        return (0, []) if with_witness else 0
    if ranks is None:
        ranks = _subset_ranks(sys.coefficient_matrix())
    # bit k of a mask over `others` is bit k (k < i) or k + 1 (k >= i) over the t forms
    spread = [(sub & (1 << i) - 1) | (sub >> i << (i + 1)) for sub in range(1 << n)]
    admissible = [ranks[mask | 1 << i] != ranks[mask] for mask in spread]
    full = (1 << n) - 1
    dp = [n + 1] * (1 << n)
    choice = [0] * (1 << n)
    dp[0] = 0
    for mask in range(1, full + 1):
        low = mask & -mask
        sub = mask
        while sub:
            if sub & low and admissible[sub] and dp[mask ^ sub] + 1 < dp[mask]:
                dp[mask] = dp[mask ^ sub] + 1
                choice[mask] = sub
            sub = (sub - 1) & mask
    s = dp[full] - 1
    if not with_witness:
        return s
    classes = []
    mask = full
    while mask:
        sub = choice[mask]
        classes.append([others[k] for k in range(n) if sub >> k & 1])
        mask ^= sub
    return s, classes


def complexity(sys):
    """Every i-complexity and witness partition, from one `_subset_ranks` table."""
    if sys.t > MAX_FORMS_FOR_COMPLEXITY:
        raise ValueError(f"complexity search limited to t <= {MAX_FORMS_FOR_COMPLEXITY}")
    ranks = _subset_ranks(sys.coefficient_matrix())
    per, witnesses = [], {}
    for i in range(sys.t):
        s, cls = i_complexity(sys, i, with_witness=True, ranks=ranks)
        per.append(s)
        if cls is not None:
            witnesses[i] = cls
    overall = max(per)
    return ComplexityResult(per_index=per, overall=overall, witnesses=witnesses)


# ---------------------------------------------------------------------------
# normal forms


def normal_form_witness(sys, i, s):
    """Smallest J (indices of basis vectors, |J| <= s+1) showing s-normal form at i.

    Requires prod_{e in J} psi_i'.(e) != 0 exactly for i' = i.
    """
    mat = sys.coefficient_matrix()
    d = sys.d
    own = [j for j in range(d) if mat[i][j] != 0]
    for size in range(1, s + 2):
        for J in itertools.combinations(own, size):
            ok = True
            for ip in range(sys.t):
                if ip == i:
                    continue
                if all(mat[ip][j] != 0 for j in J):
                    ok = False
                    break
            if ok:
                return list(J)
    return None


def is_normal_form(sys, s, with_witness=False):
    witnesses = []
    for i in range(sys.t):
        J = normal_form_witness(sys, i, s)
        if J is None:
            return (False, None) if with_witness else False
        witnesses.append(J)
    return (True, witnesses) if with_witness else True


def _witness_vector(class_rows, target):
    """Primitive integer f with row·f = 0 for rows in the class and target·f != 0.

    Exists because target is outside the class span; chosen as the shortest
    candidate among the cleared-denominator nullspace basis (lexicographic
    tie-break) for determinism.
    """
    d = len(target)
    basis = linalg.nullspace(class_rows, n_cols=d)
    best = None
    for v in basis:
        iv = linalg.clear_denominators(v)
        if sum(a * b for a, b in zip(target, iv)) != 0:
            key = (sum(x * x for x in iv), tuple(iv))
            if best is None or key < best[0]:
                best = (key, iv)
    if best is None:
        raise RuntimeError("no witness vector found; class span contains the target")
    return best[1]


def normal_form_extension(sys, s):
    """Extension Psi' of Psi in s-normal form, built per the constructive proof.

    For each index i not yet witnessed, take the covering classes of psi_i
    from the opening complexity search, find integer vectors f_k that vanish
    on each class but not on psi_i, and append parameters m_k acting through
    n + m_k f_k.  The appended columns are A f_k, so every subset keeps its
    rank and the classes stay those of the extended system.
    Returns (extended_system, f_vectors) where f_vectors lists the appended
    direction for every new parameter column.
    """
    comp = complexity(sys)
    if comp.overall == inf:
        raise ValueError("no normal form exists: two forms are affinely related")
    if comp.overall > s:
        raise ValueError(f"system has complexity {comp.overall} > s = {s}")
    current = sys
    f_vectors = []
    for i in range(sys.t):
        if normal_form_witness(current, i, s) is not None:
            continue
        rows = current.coefficient_matrix()
        new_fs = [_witness_vector([rows[j] for j in cls], rows[i]) for cls in comp.witnesses[i]]
        # append one parameter column per class: column value is psi_j.(f)
        new_forms = []
        for j, form in enumerate(current.forms):
            extra = tuple(sum(c * x for c, x in zip(form.linear_coeffs, f)) for f in new_fs)
            new_forms.append(AffineForm(form.linear_coeffs + extra, form.constant))
        current = FormSystem(tuple(new_forms))
        f_vectors.extend(new_fs)
    return current, f_vectors


def is_extension(base, ext):
    """Check the two extension properties: restriction and lattice equality."""
    d, dp = base.d, ext.d
    if dp < d or ext.t != base.t:
        return False
    for f, g in zip(base.forms, ext.forms):
        if g.linear_coeffs[:d] != f.linear_coeffs or g.constant != f.constant:
            return False
    return lattice_equal(base, ext)


def lattice_equal(a, b):
    """Psi(Z^d) == Psi'(Z^d') for systems with the same constants."""
    if a.constants() != b.constants():
        return False
    return linalg.same_column_lattice(a.coefficient_matrix(), b.coefficient_matrix())


# ---------------------------------------------------------------------------
# matrix systems A x = b


def _small_support_in_rowspace(a_rows):
    """True iff the rational row space contains a nonzero vector with <= 2 nonzeros."""
    t = len(a_rows[0])
    s = linalg.rank(a_rows)
    for drop in itertools.chain(
        itertools.combinations(range(t), 1), itertools.combinations(range(t), 2)
    ):
        kept = [j for j in range(t) if j not in drop]
        sub = [[row[j] for j in kept] for row in a_rows]
        if linalg.rank(sub) < s:
            return True
    return False


def parameterize_matrix_system(a_rows, b):
    """Multiplicity-free parameterization of {x : A x = b} as a FormSystem.

    Smith form UAV = D; with y = V^{-1} x the system is D y = U b, so the free
    coordinates of y parameterize the lattice and x = V y.  Returns
    (FormSystem on t-s parameters, base_point) where the forms' constants are
    the base point.  An empty A (s = 0) is refused, since it has no t.
    """
    a_rows = [list(map(int, r)) for r in a_rows]
    b = [int(x) for x in b]
    s = len(a_rows)
    if s == 0:
        raise ValueError("empty matrix: no columns to parameterize")
    t = len(a_rows[0])
    if linalg.rank(a_rows) != s:
        raise ValueError("not full rank")
    if _small_support_in_rowspace(a_rows):
        raise ValueError("degenerate (binary) system: row space has a small-support vector")
    d, u, v = linalg.smith_normal_form(a_rows)
    ub = [sum(u[i][k] * b[k] for k in range(s)) for i in range(s)]
    y0 = [0] * t
    for i in range(s):
        if d[i] == 0 or ub[i] % d[i]:
            raise ValueError("inconsistent system: b not in A Z^t")
        y0[i] = ub[i] // d[i]
    x0 = [sum(v[r][c] * y0[c] for c in range(t)) for r in range(t)]
    gen_cols = [[v[r][c] for r in range(t)] for c in range(s, t)]
    forms = tuple(
        AffineForm(tuple(gen_cols[k][r] for k in range(t - s)), x0[r]) for r in range(t)
    )
    sys = FormSystem(forms, check_pairwise_independent=True)
    # postcondition: A psi(n) = b identically
    for i in range(s):
        for k in range(t - s):
            if sum(a_rows[i][r] * forms[r].linear_coeffs[k] for r in range(t)) != 0:
                raise AssertionError("parameterization failed: A psi not constant")
        if sum(a_rows[i][r] * forms[r].constant for r in range(t)) != b[i]:
            raise AssertionError("parameterization failed: A psi(0) != b")
    return sys, x0


# ---------------------------------------------------------------------------
# JSON schema


def form_system_to_json(sys):
    return {
        "d": sys.d,
        "t": sys.t,
        "forms": [
            {"coeffs": list(f.linear_coeffs), "const": f.constant} for f in sys.forms
        ],
    }


def _parse_const(c, n_scale):
    if isinstance(c, dict):
        if set(c) != {"times_N"}:
            raise ValueError(f"bad constant spec {c!r}")
        if n_scale is None:
            raise ValueError("constant declared times_N but no scale N given")
        r = Fraction(c["times_N"]) * n_scale
        if r.denominator != 1:
            raise ValueError(f"times_N constant {c!r} is not integral at N={n_scale}")
        return int(r)
    return _integer(c)


def form_system_from_json(obj, n_scale=None):
    forms = tuple(
        AffineForm(tuple(f["coeffs"]), _parse_const(f.get("const", 0), n_scale))
        for f in obj["forms"]
    )
    sys = FormSystem(forms)
    if "d" in obj and obj["d"] != sys.d:
        raise ValueError("declared d does not match coefficient length")
    if "t" in obj and obj["t"] != sys.t:
        raise ValueError("declared t does not match form count")
    return sys
