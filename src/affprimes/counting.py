"""Correlation sums over convex bodies, Hardy-Littlewood predictions and
comparison reports.

weighted_count first tries the Fourier route (_fourier_count), the
circle-method case of the paper: three forms in two variables (AP3,
Vinogradov) with weights in {-1, 0, 1} obey one relation a.psi = c, and the
count over the lattice {a.m = c} is one dilated rfft convolution whose
integer entries are rounded; a rounding error of 1/4 or more, or a body or
system outside the class, falls back to the engine (_weighted_count).

The engine splits K into inner-coordinate runs, in blocks of at most
geometry.RUN_BLOCK runs; one matrix product per block gives every form's
offset on every run, and forms with a zero inner coefficient give a per-run
constant factor.  Each block goes to the first driver that applies:

* bitset, the paper's W-trick with W = BITSET_W = 6, when every live weight
  is the prime indicator, every varying form has inner coefficient +-1 and
  K has dimension >= 2 (AP4; a dim-1 count such as twins is one row, too
  short to pay for the planes): points where a form is 2 or 3 are counted
  directly, the others lie in the classes mod 6 of the inner coordinate
  where every form is a unit and are read as ANDs of bit-packed prime
  masks;
* +-1 (mobius, liouville): 2-D strided int8 views of row segments,
  multiplied in place and summed exactly in chunks (_pm1_partials); a
  segment of at least PM1_CHUNK points is counted on bit planes instead
  when every varying form has inner coefficient +1 and reads its table at
  arguments >= 0 without reflection: the nonzero bits of the forms' tables
  are ANDed, their sign bits XORed, and the partial is
  popcount(nonzero) - 2 popcount(nonzero & sign) (_pm1_bit_partials).  A
  form whose weight has no zero from its lowest argument in the segment up
  to the largest over K (liouville from argument 1 on) reads no nonzero
  bits; when no form reads them, the partial is the points of rows whose
  constant is nonzero minus 2 popcount(sign);
* sparse (weights supported on primes or prime powers): the sorted support
  of a form with inner coefficient +-1 drives the iteration, each further
  form filtered by its support mask (_sparse_partials);
* float: every row is taken in a tile, a stretch of rows whose prefixes
  step by +1 in the last outer coordinate (_joins) and whose bounding
  rectangle holds at most FLOAT_TILE points (one row if it is longer); a
  tile whose rectangle leaves a table is cut back to its first group of
  equal rows.  The forms' 2-D views of the rectangle (_block_view) are
  multiplied into one float64 buffer, and each row's partial is the
  pairwise sum of its own part of it, as for a row alone
  (_float_partials).

Accumulation is single-threaded: each run, chunk or block contributes one
partial sum, and math.fsum combines them, so results are bit-reproducible
and do not depend on the block sizes.  Counts whose partials are integers
(every live weight +-1, or every live weight the prime indicator) first
reorient K so that the inner coordinate reads the most forms with unit
stride (_unit_stride; for AP4 that is x1).  Other counts keep the given
coordinates, since float partials would change their fsum bits, and float
weights never take the Fourier route.  The exact Hardy-Littlewood integral is the
same weighted count over a 1/log table (evaluated point by point where that
table would outgrow the point count).  Past EXACT_INTEGRAL_POINT_GUARD points
a dim-2 integral is a quadrature instead (_integral_sum_quadrature): per row,
Gauss-Legendre panels plus an Euler-Maclaurin end correction, RUN_BLOCK rows
at a time, with each panel's nodes evaluated as one (nodes, rows) array
(_row_quadrature); it is as bit-reproducible as the counts.
"""

import itertools
import math
import time
from dataclasses import asdict, dataclass, field
from fractions import Fraction

import numpy as np
import numpy.fft
import numpy.polynomial

from . import arith, geometry, linalg
from .localfactors import singular_series

EXACT_INTEGRAL_POINT_GUARD = 2 * 10**7
CAND_BLOCK = 2**16              # sparse-driver candidates per chunk; bounds working memory
FFT_GUARD = 2**22               # longest convolution of the Fourier route; bounds working memory
PM1_CHUNK = 2**20               # elements per int8 chunk of the +-1 route (its int32 sum cannot overflow),
                                # and the fewest points of a segment counted on bit planes
BITSET_W = 6                    # the bitset route's W: the product of the primes up to w = 3
BITSET_CHUNK = 2**20            # bytes per AND buffer of the bitset route, and of the +-1 bit
                                # planes' two accumulators together; bounds working memory
FLOAT_TILE = 2**16              # float64 entries of the float driver's tile buffer; bounds working memory
_W_PRIMES = tuple(arith.factorize(BITSET_W))
_TAILS = np.packbits(np.arange(8) <= np.arange(8)[:, None], axis=1)[:, 0]     # _TAILS[m]: the first m + 1 bits


# ---------------------------------------------------------------------------
# weights


@dataclass
class Weight:
    """Per-form weight w(m) backed by a lookup table.

    kind: 'sparse'  - support given by a 0/1 uint8 mask and its sorted index
                      list (primes, prime powers)
          'pm1'     - dense int8 values in {-1, 0, 1}
          'float'   - dense float values
          'one'     - constant 1
    Values at m <= 0 are zero unless reflect_negative is set (then w(-m)=w(m)).
    prime_indicator is set by make_weight's 'prime_indicator' selector only.
    """

    name: str
    kind: str
    values: np.ndarray | None = None
    support_mask: np.ndarray | None = None
    support_list: np.ndarray | None = None
    reflect_negative: bool = False
    prime_indicator: bool = False

    @property
    def m_max(self):
        if self.kind == "one":
            return None
        return len(self.values) - 1


def make_weight(name, tables, wparams=None, b=None):
    """Resolve a weight selector name against arithmetic tables.

    Selectors: lambda, lambda_prime, mobius, liouville, one,
    prime_indicator, lambda_bw, lambda_prime_bw (the last two need the
    W-trick params and a residue b; they are tabulated over the form values
    n <= tables.n_max, like every selector, with w(n) = (phi(W)/W) Lambda(W n + b)
    sieved on the progression).
    """
    if name == "one":
        return Weight(name="one", kind="one")
    if name == "mobius":
        return Weight(name=name, kind="pm1", values=tables.mobius)
    if name == "liouville":
        return Weight(name=name, kind="pm1", values=tables.liouville)
    if name == "lambda":
        return weight_from_table(name, tables.von_mangoldt, sparse=True)
    if name == "lambda_prime":
        return Weight(name=name, kind="sparse", values=tables.von_mangoldt_prime,
                      support_mask=tables.prime_mask, support_list=tables.primes)
    if name == "prime_indicator":
        return Weight(name=name, kind="sparse", values=tables.prime_mask,
                      support_mask=tables.prime_mask, support_list=tables.primes,
                      prime_indicator=True)
    if name in ("lambda_bw", "lambda_prime_bw"):
        if wparams is None or b is None:
            raise ValueError(f"{name} needs W-trick params and a residue b")
        vals = arith.lambda_bw_array(tables.n_max, b, wparams, name == "lambda_prime_bw", n_lo=0)
        vals[0] = 0.0       # n = 0 corresponds to the small argument b; keep Lambda support in n >= 1
        return weight_from_table(f"{name}[b={b},W={wparams.W}]", vals, sparse=True)
    raise ValueError(f"unknown weight {name!r}")


def weight_from_table(name, values, sparse=False, reflect_negative=False):
    """Weight from a raw value table (truncated divisor sums, Lambda and Lambda_{b,W})."""
    values = np.asarray(values, dtype=np.float64)
    if sparse:
        mask = (values != 0).view(np.uint8)
        return Weight(name=name, kind="sparse", values=values, support_mask=mask,
                      support_list=np.nonzero(mask)[0].astype(np.int64),
                      reflect_negative=reflect_negative)
    return Weight(name=name, kind="float", values=values,
                  reflect_negative=reflect_negative)


# ---------------------------------------------------------------------------
# form ranges over a body (table-range precheck)


def affine_range_over_body(body, coeffs, const):
    """Exact (min, max) of an affine functional over the body, via its vertices."""
    vals = [sum(Fraction(c) * xi for c, xi in zip(coeffs, x)) + const for x in body.vertices()]
    if not vals:
        return None, None       # empty body
    return min(vals), max(vals)


def _form_bound(body, f):
    """max |f(n)| over the lattice points n of K (an upper bound), None if K is empty.

    f is integer-valued there, so the floor of the exact real bound suffices.
    """
    lo, hi = affine_range_over_body(body, f.linear_coeffs, f.constant)
    if lo is None:
        return None
    return math.floor(max(abs(lo), abs(hi)))


def _check_table_ranges(sys, body, weights):
    for f, w in zip(sys.forms, weights):
        if w.kind == "one":
            continue
        bound = _form_bound(body, f)
        if bound is None:
            return
        if bound > w.m_max:
            raise ValueError(
                f"form {f} ranges to {bound} beyond the {w.name} table (n_max={w.m_max})"
            )


# ---------------------------------------------------------------------------
# table lookups


def _strided_view(table, off, coef, lo, hi):
    """table[off + coef*x] for x = lo..hi as a (possibly reversed) view."""
    start = off + coef * lo
    stop = off + coef * hi
    if coef > 0:
        return table[start: stop + 1: coef]
    stop -= 1
    if stop < 0:
        return table[start:: coef]
    return table[start: stop: coef]


def _table_values(w, m):
    """w(m) for an int64 array m of arguments within the table (the one-argument
    oracle `_value_at` of tests/test_counting.py, vectorised)."""
    if w.reflect_negative:
        return w.values[np.abs(m)]
    return np.where(m >= 0, w.values[np.maximum(m, 0)], w.values.dtype.type(0))


def _run_view(w, off, coef, lo, hi):
    """w(off + coef*x) for x = lo..hi: a strided view unless an argument is negative."""
    if min(off + coef * lo, off + coef * hi) < 0:
        return _table_values(w, off + coef * np.arange(lo, hi + 1, dtype=np.int64))
    return _strided_view(w.values, off, coef, lo, hi)


# ---------------------------------------------------------------------------
# the counting engine


def weighted_count(sys, body, weights, tables=None, wparams=None, b_list=None):
    """Sum over K of prod_i w_i(psi_i(n)).

    weights: list of selector names or Weight objects, one per form; each
    distinct (selector, b) is resolved once.  Lambda-type weights vanish at
    nonpositive arguments.

    The Fourier route is tried first, then the engine's drivers: bitset
    (live weights all from the 'prime_indicator' selector and K of dimension
    >= 2; a user-built Weight never takes it), +-1 (segments of at least
    PM1_CHUNK points with inner coefficients +1 and arguments >= 0 on bit
    planes, sign bits alone where no weight can vanish, the others in exact
    int8 2-D blocks), sparse (all varying forms sparse, one with inner
    coefficient +-1) or float tiles of rows, in that order (see the module
    docstring).  Integer counts may first permute
    the coordinates (_unit_stride); the lattice points of K map one to one,
    so the integer does not change.  Partials are combined with math.fsum,
    so the result does not depend on the block sizes.
    """
    keys = [
        None if isinstance(w, Weight) else (w, b_list[i] if b_list is not None else None)
        for i, w in enumerate(weights)
    ]
    resolved = {
        k: make_weight(k[0], tables, wparams=wparams, b=k[1])
        for k in dict.fromkeys(keys) if k is not None
    }
    weights = [w if k is None else resolved[k] for w, k in zip(weights, keys)]
    if len(weights) != sys.t:
        raise ValueError("one weight per form required")
    if body.dim != sys.d:
        raise ValueError("body dimension != parameter count")
    _check_table_ranges(sys, body, weights)
    count = _fourier_count(sys, body, weights)
    return _weighted_count(sys, body, weights) if count is None else count


def _weighted_count(sys, body, weights):
    """The engine of weighted_count, for Weight objects whose tables cover every form over K."""
    live = [i for i, w in enumerate(weights) if w.kind != "one"]
    pm1 = all(weights[i].kind == "pm1" for i in live)
    primes = all(weights[i].prime_indicator for i in live)
    coeffs = np.array([f.linear_coeffs for f in sys.forms], np.int64).reshape(sys.t, sys.d)
    unstrided = body            # in the coordinates of sys.forms, for _form_bound
    if pm1 or primes:
        coeffs, body = _unit_stride(coeffs, body, live)
    outer = coeffs[:, :-1]
    consts = np.array([f.constant for f in sys.forms], np.int64)
    inner = coeffs[:, -1].tolist()
    step = coeffs[:, -2].tolist() if sys.d > 1 else [0] * sys.t
    fixed = [i for i in live if inner[i] == 0]
    varying = [i for i in live if inner[i] != 0]

    bits = driver = pm1_bits = None
    if pm1 and all(inner[i] == 1 and not weights[i].reflect_negative for i in varying):
        # bit planes per weight and the accumulators, built on first use; the planes stop at the largest argument over K
        pm1_bits = {"m_hi": max((_form_bound(unstrided, sys.forms[i]) or 0 for i in varying), default=0)}
    # a dim-1 body is one row: the bit planes cost O(table) and pay off only over many rows
    if primes and sys.d > 1 and varying and all(abs(inner[i]) == 1 for i in varying):
        mask = max((weights[i].values for i in live), key=len)      # all prime masks: the longest serves
        bits = _bit_planes(mask)
        signs = coeffs[varying, -1]
    elif all(weights[i].kind == "sparse" and not weights[i].reflect_negative for i in varying):
        driver = next((i for i in varying if abs(inner[i]) == 1), None)

    partials = []
    for prefix, lo, hi in body.run_blocks():
        off = prefix @ outer.T + consts             # off[r, i] = psi_i(prefix[r], 0)
        const = np.ones(len(lo), np.int8 if pm1 else np.float64)
        nonzero = np.ones(len(lo), bool)
        for i in fixed:
            v = _table_values(weights[i], off[:, i])
            nonzero &= v != 0
            const = const * v
        if fixed and not pm1:       # the +-1 route keeps such rows inside its 2-D chunks
            prefix, off, lo, hi, const = prefix[nonzero], off[nonzero], lo[nonzero], hi[nonzero], const[nonzero]
        if not varying:
            partials.extend((const * (hi - lo + 1)).tolist())
        elif bits is not None:
            partials.append(_bitset_partial(mask, bits, signs, off[:, varying], lo, hi))
        elif pm1:
            partials.extend(_pm1_partials(weights, varying, inner, step, prefix, off, lo, hi, const, pm1_bits))
        elif driver is not None:
            partials.extend(_sparse_partials(weights, varying, inner, driver, off, lo, hi, const))
        else:
            partials.extend(_float_partials(weights, varying, inner, step, prefix, off, lo, hi, const))

    return math.fsum(partials)


def _unit_stride(coeffs, body, live):
    """(coeffs, body) with the coordinates reordered so that the inner one reads best.

    The inner (last) coordinate becomes the k that minimises (live forms with
    |coef_k| > 1, live forms with coef_k != 0, -k): unit-stride reads first,
    then fewer varying forms; ties keep the last coordinate.  The box
    [-N, N]^d is invariant, so the lattice points of K map one to one and an
    integer-valued count is unchanged.
    """
    d = coeffs.shape[1]
    a = np.abs(coeffs[live])
    k = min(range(d), key=lambda k: (int((a[:, k] > 1).sum()), int((a[:, k] > 0).sum()), -k))
    if k == d - 1:
        return coeffs, body
    perm = [j for j in range(d) if j != k] + [k]
    return coeffs[:, perm], body.permuted(perm)


def _joins(prefix):
    """joins[r]: the prefix of row r + 1 is that of row r plus 1 in the last outer coordinate.

    On a stretch of rows so joined, form i's offset moves by step_i from row
    to row.  A dim-1 block has one row and no joins.
    """
    dp = np.diff(prefix, axis=0)
    return (dp[:, :-1] == 0).all(axis=1) & (dp[:, -1:] == 1).all(axis=1)


def _group_ends(prefix, lo, hi):
    """The end of each group of a block's rows, ascending and last len(lo): a group is a
    maximal stretch of rows with equal (lo, hi) that _joins links."""
    link = _joins(prefix) & (lo[1:] == lo[:-1]) & (hi[1:] == hi[:-1])
    return [*(np.flatnonzero(~link) + 1).tolist(), len(lo)]


def _pm1_partials(weights, varying, inner, step, prefix, off, lo, hi, const, bits):
    """Yield the exact integer partials of one block of a +-1 count, a 2-D chunk at a time.

    A segment is a group of rows (_group_ends), so on it form i reads its
    table at off + step_i r + inner_i x: one (rows, columns) view
    (_block_view).
    A segment of at least PM1_CHUNK points whose arguments are all >= 0 is
    counted on bit planes (_pm1_bit_partials) when bits is a dict, which
    _weighted_count passes when every varying form has inner coefficient +1
    and no varying weight reflects negatives; bits["m_hi"] bounds every
    argument, and the planes stop there.  Other segments are cut into
    chunks of at most PM1_CHUNK elements, long rows along x; the first view
    is copied into a C-ordered int8 accumulator, the others and the rows'
    constant factors (0 on some rows) multiply it in place, and its exact sum
    is the chunk's partial.
    """
    ends = _group_ends(prefix, lo, hi)
    lo, hi = lo.tolist(), hi.tolist()
    for s, e in zip([0, *ends[:-1]], ends):
        a, b = lo[s], hi[s]
        if bits is not None and (e - s) * (b - a + 1) >= PM1_CHUNK:
            lows = [_argument_range(int(off[s, i]), step[i], 1, e - s, a, b)[0] for i in varying]
            if min(lows) >= 0:
                yield from _pm1_bit_partials(weights, varying, step, off, s, e, a, b, const, lows, bits)
                continue
        width = min(b - a + 1, PM1_CHUNK)
        height = PM1_CHUNK // width
        for r in range(s, e, height):
            c = const[r: min(r + height, e)]
            if not c.any():
                continue
            for x in range(a, b + 1, width):
                y = min(x + width - 1, b)
                acc = None
                for i in varying:
                    view = _block_view(weights[i], int(off[r, i]), step[i], inner[i], len(c), x, y)
                    if acc is None:
                        acc = view.astype(np.int8, order="C")
                    else:
                        acc *= view
                if c.min() < 1:
                    acc *= c[:, None]
                yield _int8_sum(acc)


def _pm1_bit_partials(weights, varying, step, off, s, e, a, b, const, lows, bits):
    """Yield the exact partials of the segment of rows s..e-1 and columns a..b, read as bits.

    Every varying form has inner coefficient +1 and reads arguments >= 0,
    form varying[k] none below lows[k].  A +-1 value v is the pair
    (v != 0, v < 0), and a product of such values is the AND of the first
    bits and the XOR of the second, so the sum over a chunk is
    popcount(nz) - 2 popcount(nz & sign).  A form reads its weight's nonzero
    bits only if the weight has a zero at or above lows[k] (up to
    bits["m_hi"]); elsewhere they are all ones, and a weight's nonzero
    planes are built on the first segment that reads them.  When no form
    reads them, popcount(nz) is the points of the rows whose constant is
    nonzero.  On the rows r = s + c, s + c + 8, ... of one class c mod 8,
    form i starts at the argument m = off_i(r) + x, which moves by 8 step_i
    from row to row: the rows are one 2-D view (row stride step_i bytes) of
    the plane m mod 8 of _shifted_planes.  The chunks fill two accumulators
    of BITSET_CHUNK / 2 bytes each, whole uint64 words.  The sign bits of
    rows whose constant is -1 are flipped; then the bits past a row's end
    (_TAILS), the padding and the rows whose constant is 0 are cleared in
    nz, or in the sign bits (the flip set their tails) when no form reads
    nonzero bits.
    """
    if "acc" not in bits:
        size = BITSET_CHUNK // 2
        padded = -(-size // 8) * 8
        bits["acc"] = size, np.empty(padded, np.uint8), np.empty(padded, np.uint8), np.empty(padded // 8, np.uint8)
    size, nz_acc, sg_acc, ones = bits["acc"]
    signs, nonzeros = [], []            # (form, planes) read into each accumulator
    for i, low in zip(varying, lows):
        w = weights[i]
        v = w.values[:bits["m_hi"] + 1]     # the arguments K reaches
        if id(w) not in bits:
            zeros = np.flatnonzero(v == 0)
            bits[id(w)] = {"zero": int(zeros[-1]) if len(zeros) else -1, "sign": _shifted_planes(v < 0, len(v) // 8 + 2)}
        planes = bits[id(w)]
        signs.append((i, planes["sign"]))
        if low <= planes["zero"]:
            if "nonzero" not in planes:
                planes["nonzero"] = _shifted_planes(v != 0, len(v) // 8 + 2)
            nonzeros.append((i, planes["nonzero"]))
    width = min(b - a + 1, 8 * size)
    height = size // ((width + 7) // 8)
    for c0 in range(s, min(s + 8, e)):
        for r in range(c0, e, 8 * height):
            c = const[r: min(r + 8 * height, e): 8]
            if not c.any():
                continue
            for x in range(a, b + 1, width):
                y = min(x + width - 1, b)
                nb = (y - x) // 8 + 1
                n = len(c) * nb
                nz, sg = nz_acc[:n].reshape(len(c), nb), sg_acc[:n].reshape(len(c), nb)
                for out, combine, read in ((sg, np.bitwise_xor, signs), (nz, np.bitwise_and, nonzeros)):
                    for k, (i, p) in enumerate(read):
                        m = int(off[r, i]) + x
                        view = np.ndarray((len(c), nb), np.uint8, p, m % 8 * p.shape[1] + m // 8, (step[i], 1))
                        if k == 0:
                            out[...] = view
                        else:
                            combine(out, view, out=out)
                acc, mask = (nz_acc, nz) if nonzeros else (sg_acc, sg)
                if c.min() < 1:
                    np.invert(sg, out=sg, where=(c < 0)[:, None])
                    mask[c == 0] = 0
                mask[:, -1] &= _TAILS[(y - x) % 8]
                words = -(-n // 8)
                acc[n:8 * words] = 0
                sg64 = sg_acc[:8 * words].view(np.uint64)
                if nonzeros:
                    nz64 = nz_acc[:8 * words].view(np.uint64)
                    np.bitwise_and(sg64, nz64, out=sg64)
                    # popcounts into one reused buffer; their uint32 sum is at most 4 BITSET_CHUNK < 2**32
                    total = int(np.bitwise_count(nz64, out=ones[:words]).sum(dtype=np.uint32))
                else:
                    total = int(np.count_nonzero(c)) * (y - x + 1)
                yield total - 2 * int(np.bitwise_count(sg64, out=ones[:words]).sum(dtype=np.uint32))


def _int8_sum(a):
    """The exact sum of a C-ordered int8 array with entries in {-1, 0, 1}.

    64 slices are first added in int8 (each entry stays within +-64), so the
    widening int32 sum, the slow step, reads 1/64 of the elements.
    """
    flat = a.reshape(-1)
    n = len(flat) - len(flat) % 64
    tree = np.add.reduce(flat[:n].reshape(64, -1), axis=0, dtype=np.int8)
    return int(tree.sum(dtype=np.int32)) + int(flat[n:].sum(dtype=np.int32))


def _block_view(w, o, rs, cs, rows, a, b):
    """w(o + rs r + cs x) for 0 <= r < rows and a <= x <= b, as a (rows, b - a + 1) array.

    A read-only strided view into the table (the ndarray constructor checks
    that it stays inside the buffer) unless the weight reflects negatives, an
    argument is negative or the table is not contiguous; then the rows are
    read one by one (_run_view), and a single row is not copied.
    """
    v = w.values
    if w.reflect_negative or not v.flags.c_contiguous or _argument_range(o, rs, cs, rows, a, b)[0] < 0:
        runs = [_run_view(w, o + rs * r, cs, a, b) for r in range(rows)]
        return runs[0][None] if rows == 1 else np.stack(runs)
    first = o + cs * a
    view = np.ndarray((rows, b - a + 1), v.dtype, v, first * v.itemsize, (rs * v.itemsize, cs * v.itemsize))
    view.flags.writeable = False
    return view


def _argument_range(o, rs, cs, rows, a, b):
    """(min, max) of o + rs r + cs x over 0 <= r < rows and a <= x <= b (the corners)."""
    first, last = o + cs * a, o + cs * b
    corners = (first, last, first + rs * (rows - 1), last + rs * (rows - 1))
    return min(corners), max(corners)


def _sparse_partials(weights, varying, inner, i0, off, lo, hi, const):
    """Yield the per-run partials of one block, driven by the support of form i0.

    Form i0 has inner coefficient cf0 = +-1, so each run's candidates are a
    slice of its sorted support list, found by one searchsorted per block.
    Rows are taken in chunks of about CAND_BLOCK candidates; in terms of the
    driver value v, form i is k_i v + delta_i(row) with k_i = cf_i cf0, and
    each further form is evaluated only on the candidates that passed the
    support masks of the forms before it.
    """
    cf0 = inner[i0]
    sup = weights[i0].support_list
    o0 = off[:, i0]
    ends = o0 + cf0 * np.stack([lo, hi])
    first = np.searchsorted(sup, ends.min(axis=0), "left")
    count = np.searchsorted(sup, ends.max(axis=0), "right") - first
    rows = np.flatnonzero(count)
    others = [i for i in varying if i != i0]
    # rows on which form i takes a negative value somewhere in the run
    negative = {i: off[:, i] + np.minimum(inner[i] * lo, inner[i] * hi) < 0 for i in others}
    cum = np.cumsum(count[rows])
    s = 0
    while s < len(rows):
        base = int(cum[s - 1]) if s else 0
        e = max(int(np.searchsorted(cum, base + CAND_BLOCK, "right")), s + 1)
        r = rows[s:e]
        n = count[r]
        starts = cum[s:e] - n - base
        v = sup[np.arange(starts[-1] + n[-1]) + np.repeat(first[r] - starts, n)]
        args = {i0: v}          # the surviving candidates' argument of each form
        kept = None             # their positions in v
        surv = n                # their number per row
        for i in others:
            k = inner[i] * cf0
            vals = k * args[i0] + np.repeat(off[r, i] - k * o0[r], surv)
            mask = weights[i].support_mask
            if negative[i][r].any():
                sel = np.flatnonzero(mask[np.maximum(vals, 0)].view(bool) & (vals >= 0))
            else:
                sel = np.flatnonzero(mask[vals].view(bool))
            args = {j: a[sel] for j, a in args.items()}
            args[i] = vals[sel]
            kept = sel if kept is None else kept[sel]
            surv = np.diff(np.searchsorted(kept, starts), append=len(kept))
        prod = None
        for i in varying:
            vals = weights[i].values[args[i]]
            prod = vals.astype(np.float64) if prod is None else prod * vals
        stops = np.cumsum(surv)
        hit = surv > 0
        for c, a, b in zip(const[r][hit].tolist(), (stops - surv)[hit].tolist(), stops[hit].tolist()):
            yield c * float(prod[a:b].sum())
        s = e


def _float_partials(weights, varying, inner, step, prefix, off, lo, hi, const):
    """Yield the per-run partials of one block of a float count, a tile of rows at a time.

    A tile is a stretch of rows that _joins links, grown a group of rows
    (_group_ends; at most FLOAT_TILE points of it, or one row) at a time
    while its bounding rectangle [min lo, max hi] holds at most FLOAT_TILE
    points, and cut back to its first group, whose rows lie in K, if a
    form's corner arguments leave [0, len(table)).  Form i reads its table
    at off + step_i r + inner_i x (_block_view), and the views are
    multiplied into one C-ordered float64 buffer of max(FLOAT_TILE, longest
    run) entries.  Each row's partial is np.add.reduce over its own part of
    it, one reduce(axis=-1) per group: the pairwise sum of the row alone.
    """
    ws = [weights[i] for i in varying]
    cfs, steps = [inner[i] for i in varying], [step[i] for i in varying]
    off = off[:, varying]
    n = len(lo)
    buf = np.empty(max(FLOAT_TILE, int((hi - lo).max(initial=0)) + 1))
    ends = _group_ends(prefix, lo, hi)
    group_end = np.repeat(ends, np.diff(ends, prepend=0)).tolist()      # the end of row r's group
    link = _joins(prefix).tolist()
    consts, lo, hi = const.tolist(), lo.tolist(), hi.tolist()
    s = 0
    while s < n:
        a, b = lo[s], hi[s]
        e = first = min(group_end[s], s + max(FLOAT_TILE // (b - a + 1), 1))
        while e < n and link[e - 1]:
            na, nb = min(a, lo[e]), max(b, hi[e])
            fit = FLOAT_TILE // (nb - na + 1)
            if fit <= e - s:
                break
            a, b, e = na, nb, min(group_end[e], s + fit)
        reads = list(zip(ws, off[s].tolist(), steps, cfs))
        if any(not 0 <= m < len(w.values) for w, o, rs, cs in reads for m in _argument_range(o, rs, cs, e - s, a, b)):
            a, b, e = lo[s], hi[s], first
        views = [_block_view(w, o, rs, cs, e - s, a, b) for w, o, rs, cs in reads]
        tile = buf[:(e - s) * (b - a + 1)].reshape(e - s, b - a + 1)
        np.multiply(views[0], views[1] if len(views) > 1 else 1.0, out=tile, dtype=np.float64)
        for v in views[2:]:
            np.multiply(tile, v, out=tile)
        g = s
        while g < e:
            ge = min(group_end[g], e)
            part = tile[g - s:ge - s, lo[g] - a:hi[g] - a + 1]
            if ge - g == 1:
                yield consts[g] * float(np.add.reduce(part[0]))
            else:
                yield from (const[g:ge] * np.add.reduce(part, axis=-1)).tolist()
            g = ge
        s = e


# ---------------------------------------------------------------------------
# the Fourier route for complexity-1 systems (three forms in two variables)


def _fourier_count(sys, body, weights):
    """The weighted count as one dilated FFT convolution, or None off the route.

    The route needs d = 2, t = 3 and weights that are non-reflecting integer
    tables with values in {-1, 0, 1}.  The forms satisfy one primitive
    relation a.psi = c with every a_i != 0; when the Smith invariant factors
    of the linear part are (1, 1), psi maps Z^2 onto the whole lattice
    L = {m : a.m = c}, so the count is a sum over m in L.  Each facet of K
    (redundant halfspaces dropped; K must be full-dimensional) must bound a
    single form, or be the one order facet psi_j < psi_i (or <=) between
    two forms with a_i = a_j, equal weights and equal intervals; such a sum
    is (all -+ diagonal) / 2 by the symmetry m_i <-> m_j.  Every form is
    confined to an interval: its single-form facets, its range over K and
    the table support [0, m_max].  With k the form of largest |a_k|, the
    other two weights are placed at a_p m_p and a_q m_q, convolved by rfft,
    and entry c - a_k m_k is read for each m_k.  Entries are integers of at
    most FFT_GUARD in size; they are rounded, and a rounding error of 1/4 or
    more (none is expected: the error of an FFT convolution is about
    |g_p|_2 |g_q|_2 eps log n < 1e-6 here) sends the call back to the
    drivers.
    """
    if sys.d != 2 or sys.t != 3 or not all(
        w.kind != "one" and not w.reflect_negative and w.values.dtype.kind in "iu"
        for w in weights
    ):
        return None
    A = [list(f.linear_coeffs) for f in sys.forms]
    b = [f.constant for f in sys.forms]
    if linalg.smith_normal_form(A, transforms=False) != [1, 1]:
        return None
    a = linalg.clear_denominators(linalg.nullspace([list(col) for col in zip(*A)])[0])
    if 0 in a:
        return None
    c = sum(ai * bi for ai, bi in zip(a, b))

    facets = _facet_forms(body, A, b, a)
    if facets is None:
        return None
    bounds, order = facets
    lo, hi = [0] * 3, [w.m_max for w in weights]
    for i, s, bound in bounds:
        if s > 0:
            hi[i] = min(hi[i], math.floor(bound))
        else:
            lo[i] = max(lo[i], math.ceil(bound))
    ranges = [affine_range_over_body(body, f.linear_coeffs, f.constant) for f in sys.forms]
    if order:
        j, i, _ = order             # psi_j < psi_i (or <=): j is the smaller form
        # m_j >= lo_j and m_i <= hi_i bound both forms; the other two bounds must be implied
        if lo[j] < lo[i] or hi[i] > hi[j]:
            return None
        lo[i], hi[j] = lo[j], hi[i]
        ranges[i] = ranges[j] = (min(ranges[i][0], ranges[j][0]), max(ranges[i][1], ranges[j][1]))
    for i, (rlo, rhi) in enumerate(ranges):
        lo[i], hi[i] = max(lo[i], math.ceil(rlo)), min(hi[i], math.floor(rhi))
    if any(l > h for l, h in zip(lo, hi)):
        return 0.0
    f = [w.values[l:h + 1] for w, l, h in zip(weights, lo, hi)]
    if any(x.min() < -1 or x.max() > 1 for x in f):
        return None
    if order and not np.array_equal(f[order[0]], f[order[1]]):
        return None

    k = max(range(3), key=lambda i: abs(a[i]))
    p, q = (i for i in range(3) if i != k)
    (gp, offp), (gq, offq) = (_dilated(f[i], a[i], lo[i], hi[i]) for i in (p, q))
    n = len(gp) + len(gq) - 1
    nfft = 1 << (n - 1).bit_length()
    if nfft > FFT_GUARD:
        return None
    conv = np.fft.irfft(np.fft.rfft(gp, nfft) * np.fft.rfft(gq, nfft), nfft)[:n]
    idx = c - a[k] * np.arange(lo[k], hi[k] + 1, dtype=np.int64) - offp - offq
    read = (idx >= 0) & (idx < n)
    entries = conv[idx[read]]
    rounded = np.rint(entries)
    if len(entries) and np.abs(entries - rounded).max() >= 0.25:
        return None
    total = int(f[k][read].astype(np.int64) @ rounded.astype(np.int64))
    if order:
        j, i, strict = order
        k = 3 - i - j
        v = np.arange(lo[i], hi[i] + 1, dtype=np.int64)
        num = c - (a[i] + a[j]) * v             # a_k m_k on the diagonal m_i = m_j = v
        mk = num // a[k]
        on = (num % a[k] == 0) & (mk >= lo[k]) & (mk <= hi[k])
        prod = f[i][on].astype(np.int64) * f[j][on] * f[k][mk[on] - lo[k]]
        diag = int(prod.sum())
        total = (total - diag if strict else total + diag) // 2
    return float(total)


def _dilated(f, a, lo, hi):
    """(g, off) with g[a m - off] = f[m - lo] for lo <= m <= hi, zero elsewhere."""
    g = np.zeros(abs(a) * (hi - lo) + 1)
    g[::abs(a)] = f if a > 0 else f[::-1]
    return g, a * (lo if a > 0 else hi)


def _facet_forms(body, A, b, a):
    """K's facets in terms of the forms psi = A x + b, or None if one fits neither kind.

    Returns (bounds, order): bounds lists (i, s, bound) for the facets
    s (psi_i - bound) <= 0, and order is (j, i, strict) for the facet
    psi_j < psi_i (strict) or psi_j <= psi_i, or None.  K must be
    full-dimensional; a halfspace is then redundant exactly when its line
    holds fewer than two vertices of K.  A facet h.x <= c0 is written as
    l_i (psi_i - b_i) + l_j (psi_j - b_j) <= c0 for each pair (i, j), since
    a_k != 0 makes any two rows of A independent.
    """
    verts = body.vertices()
    if len(verts) < 3:
        return None
    bounds, order = [], None
    for h, c0 in body.halfspaces:
        if sum(h[0] * x + h[1] * y == c0 for x, y in verts) < 2:
            continue
        reps = []
        for i, j in ((0, 1), (0, 2), (1, 2)):
            det = A[i][0] * A[j][1] - A[i][1] * A[j][0]
            li = Fraction(h[0] * A[j][1] - h[1] * A[j][0], det)
            lj = Fraction(A[i][0] * h[1] - A[i][1] * h[0], det)
            reps.append((i, li, j, lj))
        single = [(j, lj) if li == 0 else (i, li) for i, li, j, lj in reps if li == 0 or lj == 0]
        if single:
            i, s = single[0]
            bounds.append((i, s, c0 / s + b[i]))
            continue
        pairs = [(i, j, lj) for i, li, j, lj in reps if li == -lj and a[i] == a[j]]
        if order is not None or not pairs:
            return None
        i, j, s = pairs[0]
        if s < 0:
            i, j, s = j, i, -s
        # s (psi_j - psi_i) <= c0 + s (b_j - b_i); psi_j - psi_i runs over g Z + r
        g = math.gcd(A[j][0] - A[i][0], A[j][1] - A[i][1])
        r = (b[j] - b[i]) % g

        def top(x):             # the largest value of psi_j - psi_i that is <= x
            return r + g * ((x - r) // g)

        t = top(math.floor(c0 / s + b[j] - b[i]))
        if t not in (top(0), top(-1)):
            return None
        order = (j, i, t != top(0))
    return bounds, order


# ---------------------------------------------------------------------------
# the bitset route for prime-indicator counts (the W-trick)


def _bitset_partial(mask, bits, cf, off, lo, hi):
    """The prime points of one block's runs by the W-trick (see the module docstring).

    off holds the varying forms' offsets and cf their inner coefficients
    (+-1).  On a row, x = x0 + W j (x0 in a class mod W) makes form i
    u_i + cf_i W j.  If every u_i is a unit r_i mod W, form i reads bits
    k = (u_i - r_i) / W + cf_i j >= 0 of the plane of is_prime(W k + r_i)
    (bits = _bit_planes(mask)); other classes hold only the prime points of
    _bitset_corrections.
    """
    planes, plane_of, k_top = bits
    W = BITSET_W
    unit = np.tile(plane_of >= 0, 2)            # unit[v]: v mod W is a unit, 0 <= v < 2W
    turn = cf * np.arange(W)[:, None] % W       # turn[c, i]: the residue form i adds in class c
    r, c = np.nonzero(unit[(off % W)[:, None, :] + turn].all(axis=2))
    x0 = lo[r] + (c - lo[r]) % W
    u = off[r] + cf * x0[:, None]
    res = u % W
    k0 = (u - res) // W
    last = (hi[r] - x0) // W
    jlo = np.maximum(np.where(cf > 0, -k0, 0).max(axis=1), 0)
    jhi = np.minimum(np.where(cf < 0, k0, last[:, None]).min(axis=1), last)
    ok = jlo <= jhi
    # first bit of each slice: k0 + jlo in the plane, k_top - k0 + jlo in the reversed one
    start = np.where(cf > 0, k0[ok], k_top - k0[ok]) + jlo[ok, None]
    row = plane_of[res[ok]] + (cf < 0) * 8 + start % 8
    return (_bitset_corrections(mask, off, cf, lo, hi)
            + _and_count(planes.reshape(-1), row * planes.shape[1] + start // 8, jhi[ok] - jlo[ok] + 1))


def _bit_planes(mask):
    """(planes, plane_of, k_top): the prime mask's residue classes mod W, bit-packed.

    For a unit r mod W, row plane_of[r] + 8 o + s packs the bits s, s + 1,
    ... of is_prime(W k + r), k = 0..k_top, ascending (o = 0) or descending
    (o = 1): any run of bits starts on a byte of one of the 8 shifted copies.
    plane_of is -1 off the units.
    """
    W = BITSET_W
    units = [r for r in range(W) if math.gcd(r, W) == 1]
    k = -(-len(mask) // W)
    planes = np.zeros((len(units), 2, 8, k // 8 + 2), np.uint8)
    for u, r in enumerate(units):
        col = np.zeros(k, np.uint8)
        col[:len(mask[r::W])] = mask[r::W]
        planes[u, 0], planes[u, 1] = _shifted_planes(col, k // 8 + 2), _shifted_planes(col[::-1], k // 8 + 2)
    plane_of = np.array([16 * units.index(r) if r in units else -1 for r in range(W)])
    return planes.reshape(len(units) * 16, -1), plane_of, k - 1


def _shifted_planes(bits, nbytes):
    """(8, nbytes) uint8 whose row s packs the bits s, s + 1, ... of the 0/1 array bits, zero-padded.

    Bit m of bits sits in row m mod 8 at byte m // 8, its most significant
    bit first (np.packbits), so any run of bits starts on a byte of one row.
    """
    planes = np.zeros((8, nbytes), np.uint8)
    for s in range(8):
        packed = np.packbits(bits[s:s + 8 * nbytes])
        planes[s, :len(packed)] = packed
    return planes


def _and_count(flat, first, nbits):
    """Sum over p of the set bits in the first nbits[p] bits of AND_i flat[first[p, i]:].

    Slices are ANDed into buffers of about BITSET_CHUNK bytes; bits past a slice are cleared (_TAILS).
    """
    nb = (nbits + 7) // 8
    tail = _TAILS[(nbits - 1) % 8]
    ends = np.cumsum(nb)
    total = s = 0
    while s < len(nb):
        base = int(ends[s - 1]) if s else 0
        e = max(int(np.searchsorted(ends, base + BITSET_CHUNK, "right")), s + 1)
        acc = np.empty(-(-(int(ends[e - 1]) - base) // 8) * 8, np.uint8)      # whole uint64 words
        acc[int(ends[e - 1]) - base:] = 0
        for at, n, o in zip(first[s:e].tolist(), nb[s:e].tolist(), (ends[s:e] - nb[s:e] - base).tolist()):
            out, src = acc[o:o + n], flat[at[0]:at[0] + n]
            if len(at) == 1:
                out[:] = src
            for a in at[1:]:
                np.bitwise_and(src, flat[a:a + n], out=out)
                src = out
        acc[ends[s:e] - base - 1] &= tail[s:e]
        total += int(np.bitwise_count(acc.view(np.uint64)).sum())
        s = e
    return total


def _bitset_corrections(mask, off, cf, lo, hi):
    """The prime points of the runs (off, lo, hi) at which some form equals a prime p | W.

    Form i is p at x = cf_i (p - off_i).  A point counts for its first form <= w (W is a
    primorial: a prime divides W exactly when it is at most w), hence once.
    """
    x = cf * (np.array(_W_PRIMES)[:, None, None] - off)
    p, r, i = np.nonzero((lo[:, None] <= x) & (x <= hi[:, None]))
    vals = off[r] + x[p, r, i][:, None] * cf
    first = ~((vals <= _W_PRIMES[-1]) & (np.arange(len(cf)) < i[:, None])).any(axis=1)
    return int((first & (vals > 0).all(axis=1) & mask[np.maximum(vals, 0)].all(axis=1)).sum())


def prime_point_count(sys, body, tables):
    """#{n in K : every psi_i(n) is prime}."""
    count = weighted_count(sys, body, ["prime_indicator"] * sys.t, tables)
    return int(round(count))


# ---------------------------------------------------------------------------
# predictions


def _integral_sum_exact(sys, body, npoints):
    """Lattice sum of prod 1_{psi_i > 2} / log psi_i over K (npoints lattice points).

    A weighted count with the float weight g(m) = 1/log m for m > 2 (else 0).
    Where a table up to max |psi_i| over K would hold more entries than the
    t * npoints logarithms of evaluating g point by point (forms with large
    coefficients over few points), g is evaluated per point.  Otherwise the
    table reaches max |psi_i| over K's lattice bounding box when that is at
    most t * npoints entries too: the float driver's tiles are rectangles of
    rows, which on a slanted facet of K read past the bound over K (AP4's
    hypotenuse), and a tile that leaves the table is cut back to its first
    group of rows.  The route reads the bound over K alone.
    """
    bounds = [_form_bound(body, f) for f in sys.forms]
    if None in bounds:
        return 0.0
    m_max = max(bounds)
    if m_max > sys.t * npoints:
        return _integral_sum_pointwise(sys, body)
    box = [(math.ceil(min(x)), math.floor(max(x))) for x in zip(*body.vertices())]
    reach = max(abs(f.constant + sum(pick(a * lo, a * hi) for a, (lo, hi) in zip(f.linear_coeffs, box)))
                for f in sys.forms for pick in (min, max))
    if reach <= sys.t * npoints:
        m_max = max(m_max, reach)
    g = np.zeros(m_max + 1)
    g[3:] = 1.0 / np.log(np.arange(3, m_max + 1))
    return _weighted_count(sys, body, [weight_from_table("1/log", g)] * sys.t)


def _integral_sum_pointwise(sys, body):
    """The sum of _integral_sum_exact with 1/log evaluated at every lattice point."""
    d = sys.d
    coeffs = [list(f.linear_coeffs) for f in sys.forms]
    consts = [f.constant for f in sys.forms]
    parts = []
    for prefix, lo, hi in body.runs():
        xs = np.arange(lo, hi + 1, dtype=np.int64)
        prod = None
        for cf, c in zip(coeffs, consts):
            off = sum(cf[j] * prefix[j] for j in range(d - 1)) + c
            vals = off + cf[d - 1] * xs
            g = np.where(vals > 2, 1.0 / np.log(np.maximum(vals, 3)), 0.0)
            prod = g if prod is None else prod * g
        parts.append(float(prod.sum()))
    return math.fsum(parts)


def _integral_sum_quadrature(sys, runs, nodes=12, panels=8):
    """Euler-Maclaurin / Gauss-Legendre approximation of the same lattice sum.

    Valid for dim 2; rows are the outer-coordinate runs, given as the
    (prefix, lo, hi) arrays of body.outer_values_and_bounds().  The inner sum over
    integers in [lo, hi] is the integral over [lo - 1/2, hi + 1/2] plus the
    midpoint-dual Euler-Maclaurin correction (g'(lo-1/2) - g'(hi+1/2))/24,
    with g' in closed form.  Panels are split geometrically since the
    integrand varies on a log scale.  The interval is clipped to
    {psi_i >= 3} first.
    """
    prefix, lo, hi = runs
    gl_x, gl_w = np.polynomial.legendre.leggauss(nodes)
    total = np.empty(len(lo))
    k = 0                       # the rows kept so far
    # Rows are independent, so they are clipped and integrated in blocks of
    # RUN_BLOCK: that bounds the temporaries and the kernel's (nodes, rows)
    # buffers, and full-length ones would cost as many page faults as
    # arithmetic.  The buffers are allocated once, since freeing them after
    # each block lets malloc return their pages and fault them in again.
    work = np.empty((3, nodes, min(len(lo), geometry.RUN_BLOCK)))
    for s in range(0, len(lo), geometry.RUN_BLOCK):
        rows = slice(s, s + geometry.RUN_BLOCK)
        x1 = prefix[rows, 0].astype(np.float64)
        a = lo[rows].astype(np.float64) - 0.5
        b = hi[rows].astype(np.float64) + 0.5
        keep = np.ones(len(x1), dtype=bool)
        for f in sys.forms:
            (a0, a1), c = f.linear_coeffs, f.constant
            base = a0 * x1 + c
            if a1 == 0:
                keep &= base > 2
            elif a1 > 0:
                np.maximum(a, (2.5 - base) / a1, out=a)
            else:
                np.minimum(b, (2.5 - base) / a1, out=b)
        keep &= a < b
        n = int(np.count_nonzero(keep))
        total[k:k + n] = _row_quadrature(sys.forms, x1[keep], a[keep], b[keep], gl_x, gl_w, panels, work)
        k += n
    return float(total[:k].sum())


def _row_quadrature(forms, x1, lo, hi, gl_x, gl_w, panels, work):
    """Per row x1: Gauss-Legendre sum of g over [lo, hi] plus (g'(lo) - g'(hi))/24.

    A panel's nodes are one (nodes, rows) array, and each step below is one ufunc call
    over it, in the three (nodes, rows) buffers of work (shape (3, nodes, >= rows)),
    reused across panels and blocks.  Each node rounds psi = ((a0 x1 + a1 x2) + c),
    clamps it to >= 3 and multiplies 1/log psi into g in form order; the panel's
    weighted rows are then added to the total in node order, so
    every row sees the same operations in the same order as node by node.  a0 x1 is
    formed once, and skipping a1 = 1 and c = 0 is exact (the clamp replaces a zero of
    either sign).  The nodes skip the clamp for a form whose psi is >= 4 on every row at
    the end where it is least (lo for a1 > 0, hi for a1 < 0): rounded psi is monotone
    along a row and every node lies in [lo, hi] up to rounding, which the margin of 1
    above the clamp covers, so there the clamp is the identity.  The two end
    evaluations for g' keep it.
    """
    # a form with a1 = 0 has the same 1/log psi at every node and no g'/g term: computed once
    terms = []
    for f in forms:
        (a0, a1), c = f.linear_coeffs, f.constant
        if a1 == 0:
            terms.append(1.0 / np.log(np.maximum(a0 * x1 + c, 3.0)))
        else:
            ax = a0 * x1
            clamp = not ((ax + a1 * (lo if a1 > 0 else hi) + c) >= 4.0).all()
            terms.append((ax, a1, c, clamp))

    def g_at(x2, g, psi, dg_over_g=None):
        """g(x2) into g; given dg_over_g (at the ends, which always clamp), also subtracts
        each a1 / (psi log psi) from it."""
        for k, inv in enumerate(terms):
            if isinstance(inv, tuple):
                ax, a1, c, clamp = inv
                np.add(ax, x2 if a1 == 1 else np.multiply(a1, x2, out=psi), out=psi)
                if c:
                    np.add(psi, c, out=psi)
                if clamp or dg_over_g is not None:
                    np.maximum(psi, 3.0, out=psi)
                lg = np.log(psi, out=psi if dg_over_g is None else None)
                if dg_over_g is not None:
                    dg_over_g -= a1 / (psi * lg)
                inv = np.divide(1.0, lg, out=g if k == 0 else lg)
            if k:
                np.multiply(g, inv, out=g)
            elif inv is not g:
                g[:] = inv
        return g

    span = hi - lo + 1.0
    total = np.zeros(len(x1))
    xi, wi = gl_x[:, None], gl_w[:, None]
    node, psi, g = work[:, :, :len(x1)]
    # the panel edges lo + span^(k/panels) - 1, made one at a time
    for a, bnd in itertools.pairwise(lo + (span ** (k / panels) - 1.0) for k in range(panels + 1)):
        half = (bnd - a) / 2.0
        mid = (bnd + a) / 2.0
        g_at(np.add(mid, np.multiply(half, xi, out=node), out=node), g, psi)
        np.multiply(np.multiply(wi, half, out=node), g, out=g)
        for row in g:
            total += row
    ends, dg_over_g = node[:2], np.zeros((2, len(x1)))
    ends[0], ends[1] = lo, hi
    dg = np.multiply(g_at(ends, g[:2], psi[:2], dg_over_g), dg_over_g, out=dg_over_g)
    total += (dg[0] - dg[1]) / 24.0
    return total


def predict(sys, body, ss, mode="integral"):
    """Hardy-Littlewood prediction for the prime point count on K.

    ss is the system's truncated singular series (singular_series(sys, p_max)).
    log_power: (beta_inf / log^t N) prod_{p <= p_max} beta_p
    integral:  prod beta_p * sum_K prod_i 1_{psi_i>2}/log psi_i
    Returns (prediction, ss).
    """
    if ss.vanishing:
        return 0.0, ss
    n = body.box_bound
    if mode == "log_power":
        if n < 2:
            raise ValueError(f"the log_power prediction divides by log N: N must be at least 2, not {n}")
        beta_inf, _ = geometry.archimedean_factor(body, sys)
        return ss.truncated_product * beta_inf / math.log(n) ** sys.t, ss
    if mode != "integral":
        raise ValueError(f"unknown mode {mode!r}")
    # the point count picks the route; in dim 2 it is read off the runs the quadrature takes
    runs = body.outer_values_and_bounds() if body.dim == 2 else None
    npoints = body.lattice_point_count(runs)
    if npoints <= EXACT_INTEGRAL_POINT_GUARD or runs is None:
        val = _integral_sum_exact(sys, body, npoints)
    else:
        val = _integral_sum_quadrature(sys, runs)
    return ss.truncated_product * val, ss


# ---------------------------------------------------------------------------
# comparison reports


@dataclass
class CorrelationReport:
    empirical: float
    predicted_log_power: float
    predicted_integral: float
    ratio_log_power: float | None         # None where the prediction is 0
    ratio_integral: float | None
    N: int
    meta: dict = field(default_factory=dict)

    def to_json(self):
        return asdict(self)

    def csv_row(self):
        vals = (self.N, self.empirical, self.predicted_log_power, self.predicted_integral,
                self.ratio_log_power, self.ratio_integral, self.meta.get("seconds"))
        return ",".join("" if v is None else str(v) for v in vals)

    csv_header = "N,empirical,pred_log,pred_int,ratio_log,ratio_int,seconds"


def compare(sys, body, p_max, tables):
    """Empirical prime point count against both prediction modes.

    The report's `empirical` field is the prime point count, the quantity
    both prediction modes target.
    """
    t0 = time.perf_counter()
    empirical = prime_point_count(sys, body, tables)
    ss = singular_series(sys, p_max)
    pred_log, _ = predict(sys, body, ss, "log_power")
    pred_int, _ = predict(sys, body, ss, "integral")
    meta = {
        "system": str(sys),
        "P_max": p_max,
        "singular_series": ss.truncated_product,
        "vanishing": ss.vanishing,
    }
    meta["seconds"] = round(time.perf_counter() - t0, 3)
    return CorrelationReport(
        empirical=float(empirical),
        predicted_log_power=pred_log,
        predicted_integral=pred_int,
        ratio_log_power=empirical / pred_log if pred_log else None,
        ratio_integral=empirical / pred_int if pred_int else None,
        N=body.box_bound,
        meta=meta,
    )


# ---------------------------------------------------------------------------
# Mobius / Liouville correlations


def mobius_correlation(sys, body, tables, func="mobius"):
    """N^{-d} sum over K of prod f(psi_i(n)) for f = mu or lambda."""
    if func not in ("mobius", "liouville"):
        raise ValueError("func must be 'mobius' or 'liouville'")
    total = weighted_count(sys, body, [func] * sys.t, tables)
    return total / float(body.box_bound) ** body.dim


def chowla_check(factors, n_scale, tables):
    """E_{y1,y2 <= N} lambda(prod factors) via complete multiplicativity.

    factors: homogeneous AffineForms on Z^2.  Repeated factors cancel in
    pairs (lambda^2 = 1 on nonzero values); if everything cancels the
    product is a perfect-square multiple and the check is rejected.
    """
    from .forms import AffineForm, FormSystem

    for f in factors:
        if f.constant != 0:
            raise ValueError("factors must be homogeneous")
    counts = {}
    for f in factors:
        key = tuple(linalg.clear_denominators(list(f.linear_coeffs)))
        counts[key] = counts.get(key, 0) + 1
    odd = [k for k, c in counts.items() if c % 2]
    if not odd:
        raise ValueError("product is a rational multiple of a perfect square")
    sys = FormSystem(tuple(AffineForm(k) for k in odd))
    body = geometry.ConvexBody.box(2, 1, n_scale)
    return mobius_correlation(sys, body, tables, func="liouville")
