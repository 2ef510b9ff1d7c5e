"""Gowers box norms, cyclic and local uniformity norms, and the
Cauchy-Schwarz inequality battery.

Every box and weighted box average,
E_{x0,x1} prod_omega C^{|omega|} f_omega(x^{(omega)}) times the nu_C weights,
is a single np.einsum call in _box_average.  The cyclic and local norms recurse
over differences down to an FFT at U^2; the U^3 level transforms its
difference rows in blocks of ROWS.  The local norm computes its normaliser on
a second thread beside its numerator.  Only the cyclic norm keeps its naive
defining average beside the fast route (method "naive"); the naive oracles of
the box and local norms live in the tests, and every fast path must agree
with its oracle at small sizes.  Complex inputs are supported with the
conjugation pattern C^{|omega|}.
"""

import itertools
import math
import threading
from dataclasses import dataclass

import numpy as np
import numpy.fft

NAIVE_WORK_GUARD = 10**9
# Largest einsum intermediate in elements (16 MB complex); optimize=True caps it
# at the largest operand, which turns a (31, 31, 31) box norm into one 31^6 loop.
_EINSUM_MAX_INTERMEDIATE = 2**20
# Difference rows per FFT block of the U^3 level.  At length 2001 blocks of
# 4 to 64 rows take the same time within 3 %; a block's buffers hold 40 bytes
# per entry (1.3 MB at 16 rows).
ROWS = 16
# Slack the inequality checks allow lhs over rhs for rounding: holds is lhs <= rhs + CHECK_TOL.
CHECK_TOL = 1e-9


@dataclass
class GowersResult:
    raw_power_average: float
    norm: float
    method: str


def _finalize(raw, method, order):
    raw_real = float(np.real(raw))
    if raw_real < 0:
        norm = 0.0 if raw_real > -1e-9 else float("nan")
    else:
        norm = raw_real ** (1.0 / order)
    return GowersResult(raw_power_average=raw_real, norm=norm, method=method)


# ---------------------------------------------------------------------------
# box norms over products of finite sets


def _einsum_mean(operands):
    """Mean over every index value of the product of the operands.

    operands is a list of (array, index list) pairs in np.einsum's sublist
    form; the mean runs over the product of all index ranges, which is
    checked against NAIVE_WORK_GUARD.  The greedy contraction order keeps
    every pairwise intermediate within _EINSUM_MAX_INTERMEDIATE elements.
    """
    sizes = {}
    for arr, sub in operands:
        sizes.update(zip(sub, np.shape(arr)))
    count = math.prod(sizes.values())
    if count > NAIVE_WORK_GUARD:
        raise ValueError("work guard exceeded")
    args = [x for arr, sub in operands for x in (arr, sub)]
    return np.einsum(*args, [], optimize=("greedy", _EINSUM_MAX_INTERMEDIATE)) / count


def _box_average(fs, nus):
    """E_{x0, x1} prod_omega C^{|omega|} f_omega(x^{(omega)}) prod_C prod_{omega_C} nu_C(x_C^{(omega_C)}).

    fs lists 2^k arrays over X_1 x ... x X_k, one per omega in lexicographic
    order; nus maps frozenset C of axis indices to a real array over X_C (axes
    in sorted order).  x0 axis i is einsum index i and x1 axis i is index k + i.
    """
    k = np.ndim(fs[0])
    operands = [
        (np.conj(f) if sum(omega) % 2 else f, [i + k * o for i, o in enumerate(omega)])
        for f, omega in zip(fs, itertools.product((0, 1), repeat=k))
    ]
    for c, nu in nus.items():
        cl = sorted(c)
        nu = np.asarray(nu, dtype=float)
        operands += [
            (nu, [a + k * o for a, o in zip(cl, omega_c)])
            for omega_c in itertools.product((0, 1), repeat=len(cl))
        ]
    return _einsum_mean(operands)


def box_norm(f):
    """Gowers box norm of a multi-axis array, by the einsum cube average."""
    f = np.asarray(f, dtype=complex)
    if f.ndim == 0:
        raise ValueError("box norm needs at least one axis")
    if math.prod(s * s for s in f.shape) > NAIVE_WORK_GUARD:
        raise ValueError("work guard exceeded for box norm")
    return _finalize(_box_average([f] * 2**f.ndim, {}), "direct", 2 ** f.ndim)


# ---------------------------------------------------------------------------
# cyclic uniformity norms U^{s+1}(Z_N)


def _cyclic_cube_average(fs):
    """E_{x, h in Z_N^k} prod_omega C^{|omega|} f_omega(x + omega.h).

    fs lists 2^k arrays over Z_N, one per omega in lexicographic order.
    """
    k = int(math.log2(len(fs)))
    n = len(fs[0])
    if n ** (k + 1) > NAIVE_WORK_GUARD:
        raise ValueError("work guard exceeded for naive cyclic average")
    omegas = list(itertools.product((0, 1), repeat=k))
    idx = np.arange(n)
    total = 0.0 + 0.0j
    for h in itertools.product(range(n), repeat=k):
        prod = np.ones(n, dtype=complex)
        for omega, fv in zip(omegas, fs):
            shift = sum(o * hh for o, hh in zip(omega, h)) % n
            v = fv[(idx + shift) % n]
            if sum(omega) % 2:
                v = np.conj(v)
            prod = prod * v
        total += prod.sum()
    return total / n ** (k + 1)


class _Buffers:
    """The arrays _cyclic_raw_recursive writes for a length-n input at level s.

    The caller allocates them, so that a kernel on another thread allocates
    nothing large.  The U^3 level reads its difference rows off the length-n
    windows of `doubled` (f twice over; window h is roll(f, -h)); each level
    above it writes its difference function into a row of `outer`.
    """

    def __init__(self, n, s):
        k, m = (min(ROWS, n), n) if s > 1 else (1, 0)    # U^2 transforms f itself
        self.fh = np.empty((k, n), dtype=complex)
        self.mag = np.empty((k, n))
        self.sums = np.empty(k)
        self.rows = np.empty((k, m), dtype=complex)
        self.doubled = np.empty(2 * m, dtype=complex)
        self.outer = np.empty((max(s - 2, 0), n), dtype=complex)


def _fourier_u2_rows(rows, buf):
    """sum_xi |f_hat(xi)|^4 = U^2(Z_n)^4 of each row (f_hat the E-normalised FFT),
    rounded as np.sum(np.abs(np.fft.fft(row) / n) ** 4); a view of buf.sums."""
    k, n = rows.shape
    fh, mag = buf.fh[:k], buf.mag[:k]
    np.divide(np.fft.fft(rows, out=fh), n, out=fh)
    np.power(np.abs(fh, out=mag), 4, out=mag)
    return np.add.reduce(mag, axis=-1, out=buf.sums[:k])


def _cyclic_raw_recursive(f, s, buf):
    """U^{s+1}(Z_n)^{2^{s+1}} = E_h ||f conj(f(. + h))||_{U^s}^{2^s}, summed in ascending h.

    Each product goes to a buffer apart from its operands: numpy's in-place
    complex multiply of length 1 rounds otherwise than f * conj(g).
    """
    n = len(f)
    if s == 1:
        return float(_fourier_u2_rows(f[None], buf)[0])
    total = 0.0
    if s == 2:
        np.concatenate([f, f], out=buf.doubled)
        shifted = np.lib.stride_tricks.sliding_window_view(buf.doubled, n)
        for h in range(0, n, len(buf.rows)):
            g = buf.rows[:n - h]
            np.multiply(f, np.conjugate(shifted[h:h + len(g)], out=buf.fh[:len(g)]), out=g)
            for v in _fourier_u2_rows(g, buf).tolist():
                total += v
        return total / n
    g, conj = buf.outer[s - 3], buf.doubled[:n]
    for h in range(n):
        np.conjugate(f[h:], out=conj[:n - h])
        np.conjugate(f[:h], out=conj[n - h:])
        total += _cyclic_raw_recursive(np.multiply(f, conj, out=g), s - 1, buf)
    return total / n


def gowers_norm_cyclic(f, s, method="recursive"):
    """U^{s+1}(Z_N) norm; methods: naive, recursive."""
    if s < 1:
        raise ValueError("s must be >= 1")
    f = np.asarray(f, dtype=complex)
    if method == "naive":
        raw = _cyclic_cube_average([f] * 2 ** (s + 1))
    elif method == "recursive":
        raw = _cyclic_raw_recursive(f, s, _Buffers(len(f), s))
    else:
        raise ValueError(f"unknown method {method!r}")
    return _finalize(raw, method, 2 ** (s + 1))


# ---------------------------------------------------------------------------
# local norms U^{s+1}(A) on integer intervals


def _beside(main, side):
    """(main(), side()), with side() run on a second thread meanwhile.

    side() may call only private kernels (perfbench's tracer wraps the public
    ones and keeps one span stack for all threads) and write only into arrays
    allocated before the call.  An exception of either is raised here once
    both have ended.
    """
    out = []

    def run():
        try:
            out.append(side())
        except BaseException as e:      # re-raised on the calling thread
            out.append(e)

    thread = threading.Thread(target=run)
    thread.start()
    try:
        first = main()
    finally:
        thread.join()
    if isinstance(out[0], BaseException):
        raise out[0]
    return first, out[0]


def gowers_norm_local(f, s):
    """U^{s+1} norm on an interval, intrinsic normalisation.

    It embeds the interval in Z_M with M > 2|I| (a Freiman
    isomorphism for parallelepipeds) and uses
    ||f||_{U(I)} = ||f 1_I||_{U(Z_M)} / ||1_I||_{U(Z_M)}.
    For s >= 2 the normaliser ||1_I|| runs on a second thread while this one
    computes the numerator; both use the row-block kernel, each with its own
    buffers, and the quotient is that of two sequential passes.
    """
    f = np.asarray(f, dtype=complex)
    n = len(f)
    if n < 1:
        raise ValueError("empty interval")
    if s < 1:
        raise ValueError("s must be >= 1")
    m = 2 * n + 1
    fe = np.zeros(m, dtype=complex)
    fe[:n] = f
    ie = np.zeros(m, dtype=complex)
    ie[:n] = 1.0
    fb, ib = _Buffers(m, s), _Buffers(m, s)
    if s == 1:
        # a second thread gains nothing at the U^2 length (notes/decisions.md)
        raw = _cyclic_raw_recursive(fe, s, fb) / _cyclic_raw_recursive(ie, s, ib)
    else:
        # pocketfft's plan cache takes no lock: build the length-m plan first
        np.fft.fft(fe, out=fb.fh[0])
        num, den = _beside(lambda: _cyclic_raw_recursive(fe, s, fb), lambda: _cyclic_raw_recursive(ie, s, ib))
        raw = num / den
    return _finalize(raw, "embed", 2 ** (s + 1))


# ---------------------------------------------------------------------------
# inequality checks


def gcs_check(family):
    """Gowers-Cauchy-Schwarz over Z_N: |E prod C^{|w|} f_w(x + w.h)| <= prod ||f_w||.

    `family` maps each omega in {0,1}^k (tuple), k >= 2, to an array over
    Z_N, or is a flat list in lexicographic omega order; its size gives k.
    Returns (lhs, rhs, holds), holds allowing CHECK_TOL of rounding.
    """
    k = max(len(family).bit_length() - 1, 2)
    if len(family) != 2**k:
        raise ValueError(f"a U^{k} family has {2**k} functions, got {len(family)}")
    if isinstance(family, dict):
        family = [family[omega] for omega in itertools.product((0, 1), repeat=k)]
    fs = [np.asarray(v, dtype=complex) for v in family]
    lhs = abs(_cyclic_cube_average(fs))
    rhs = math.prod(gowers_norm_cyclic(fv, k - 1).norm for fv in fs)
    return lhs, rhs, lhs <= rhs + CHECK_TOL


def _subset_product_average(fb, full):
    """E_x prod_B f_B(x_B) over X_A, A = full; f_B has its axes in sorted order."""
    pos = {a: i for i, a in enumerate(sorted(full))}
    return _einsum_mean([(np.asarray(arr), [pos[a] for a in sorted(b)]) for b, arr in fb.items()])


def _relabel(family, b):
    """The members of family on proper subsets C of b, with C renamed to positions in sorted(b)."""
    pos = {a: i for i, a in enumerate(sorted(b))}
    return {frozenset(pos[a] for a in c): v for c, v in family.items() if c < b}


def second_gcs_check(fb):
    """Second Gowers-Cauchy-Schwarz (one function per subset B of the axes).

    fb maps frozenset B -> array over X_B (axes in sorted order); the full
    set A is the largest key.  Checks
    |E prod f_B(x_B)| <= prod ||f_B^{bar2^{|A|-|B|}}||_{box(X_B)}^{1/2^{|A|-|B|}}.
    """
    full = max(fb.keys(), key=len)
    k = len(full)
    lhs = abs(_subset_product_average(fb, full))
    rhs = 1.0
    for b, arr in fb.items():
        gap = k - len(b)
        if len(b) == 0:
            rhs *= abs(complex(arr)) ** (1.0 / 2**gap)
            continue
        g = arr if gap == 0 else np.abs(arr) ** (2**gap)
        rhs *= box_norm(g).norm ** (1.0 / 2**gap)
    return lhs, rhs, lhs <= rhs + CHECK_TOL


# ---------------------------------------------------------------------------
# weighted box norms


def weighted_box_norm(g, nu_family):
    """||g||_{box^B(nu; X_B)} with weights nu_C for proper subsets C of the axes.

    nu_family maps frozenset C (axis indices) -> nonnegative array over X_C.
    Missing subsets default to the constant 1; a key that is not a proper
    subset of the axes raises ValueError.  The defining average runs over
    pairs (x0, x1) with the product of nu_C over all omega_C patterns.
    """
    g = np.asarray(g, dtype=complex)
    k = g.ndim
    bad = [sorted(c) for c in nu_family if not c < frozenset(range(k))]
    if bad:
        raise ValueError(f"weight keys {bad} are not proper subsets of the axes 0..{k - 1}")
    raw = _box_average([g] * 2**k, nu_family)
    res = _finalize(raw, "direct", 2**k)
    if res.raw_power_average < -1e-9 * max(1.0, float(np.abs(g).max()) ** (2**k)):
        raise ValueError("weighted raw average significantly negative: bad weights?")
    return res


def weighted_gvn_check(f_family, nu_family):
    """Weighted generalised von Neumann inequality on |A| axes.

    f_family maps frozenset B -> array on X_B with |f_B| <= nu_B pointwise
    (B over all subsets; the full-set function is the main one).  Checks
    |E prod f_B| <= ||f_A||_{box(nu)} prod_{B proper} ||nu_B||_{box(nu)}^{1/2^{|A|-|B|}},
    where each box norm over X_B takes the weights nu_C, C a proper subset of B.
    """
    full = max(f_family, key=len)
    k = len(full)
    lhs = abs(_subset_product_average(f_family, full))
    rhs = weighted_box_norm(f_family[full], _relabel(nu_family, full)).norm
    for b in f_family:
        if len(b) == k or len(b) == 0:
            continue
        val = weighted_box_norm(nu_family[b], _relabel(nu_family, b)).norm
        rhs *= val ** (1.0 / 2 ** (k - len(b)))
    return lhs, rhs, lhs <= rhs + CHECK_TOL
