"""Truncated divisor sums, sieve factors, the sharp/flat split of the von
Mangoldt function, and the enveloping sieve with its pseudorandomness checks.

Cutoff functions are piecewise polynomial with closed-form derivatives:

* normalized_bump: even, supported on [-1,1], chi(0) = 1, built by smoothing
  the tent 1-|x| over a width eps at both ends.  Cauchy-Schwarz forces
  int_0^1 |chi'|^2 >= 1 for any such chi with equality only for the
  (non-smooth) tent itself, so chi(0)=1 and c_{chi,2}=1 cannot hold exactly
  at the same time; with the default eps the gap is ~8e-7.
* tent_taper: the tent smoothed only near the support edge; its derivative
  at 0+ is -1 (we adopt the right-derivative in c_{chi,1} = -chi'(0)), which
  makes it the natural cutoff for a = 1 experiments.
* sharp/flat split pieces of the identity function chi(x) = x, transitioning
  on [1/2, 1] through a fixed quintic smoothstep.

The divisor sums need mu(d) for d <= R only (arith.factorize for one n, an
R-sized mu table for arrays).  The W-trick reads only its progression: the
array kernels take (W, b) and return values at W n + b for n <= N, so no
table of size W N is built.
"""

import math
from dataclasses import dataclass

import numpy as np
import numpy.fft
import numpy.random

from . import arith, counting, gowers, linalg

MC_CHUNK = 2**14            # Monte-Carlo rows per chunk; sized so nu's head and the chunk buffers stay in L2


def _smoothstep(u):
    """Quintic C^2 step: 0 -> 1 on [0, 1]."""
    u = np.clip(u, 0.0, 1.0)
    return u**3 * (10.0 - 15.0 * u + 6.0 * u * u)


def _smoothstep_int(u):
    """int_0^u smoothstep."""
    u = np.clip(u, 0.0, 1.0)
    return u**4 * (2.5 - 3.0 * u + u * u)


@dataclass
class SmoothCutoff:
    family_id: str
    evaluator: object           # chi(x), vectorised over numpy arrays
    derivative: object          # chi'(x) for x > 0 (right-derivative at 0)
    support_radius: float = 1.0
    breakpoints: tuple = ()
    smooth_at_zero: bool = True

    def __call__(self, x):
        return self.evaluator(x)


def normalized_bump(eps=1e-6):
    """Smoothed tent: chi(0) = 1 exactly, c_{chi,2} = 1 + eps(2q - eps)/(1-eps)^2."""
    if not 0 < eps <= 0.5:
        raise ValueError("eps must lie in (0, 1/2]")
    scale = 1.0 / (1.0 - eps)

    def deriv(x):
        x = np.abs(np.asarray(x, dtype=float))
        out = np.zeros_like(x)
        ramp0 = x < eps
        mid = (x >= eps) & (x <= 1 - eps)
        ramp1 = (x > 1 - eps) & (x <= 1)
        out[ramp0] = -scale * _smoothstep(x[ramp0] / eps)
        out[mid] = -scale
        out[ramp1] = -scale * (1.0 - _smoothstep((x[ramp1] - 1 + eps) / eps))
        return out

    def chi(x):
        x = np.abs(np.asarray(x, dtype=float))
        out = np.zeros_like(x)
        ramp0 = x < eps
        mid = (x >= eps) & (x <= 1 - eps)
        ramp1 = (x > 1 - eps) & (x <= 1)
        out[ramp0] = 1.0 - scale * eps * _smoothstep_int(x[ramp0] / eps)
        out[mid] = 1.0 - scale * (x[mid] - eps / 2.0)
        u = (x[ramp1] - 1 + eps) / eps
        out[ramp1] = 1.0 - scale * (
            1.0 - 1.5 * eps + (x[ramp1] - 1 + eps) - eps * _smoothstep_int(u)
        )
        return out

    return SmoothCutoff(
        family_id=f"normalized_bump(eps={eps:g})",
        evaluator=chi,
        derivative=deriv,
        breakpoints=(eps, 1 - eps, 1.0),
        smooth_at_zero=True,
    )


def tent_taper(delta=0.1):
    """Tent 1-|x| smoothed only near |x| = 1; right-derivative at 0 is -1.

    The taper is delta*g(u) with the quintic g matching value delta, slope -1
    and curvature 0 at the joint and a C^2 zero at the support edge.
    """
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")

    def g(u):
        return 1.0 - u - 4.0 * u**3 + 7.0 * u**4 - 3.0 * u**5

    def gp(u):
        return -1.0 - 12.0 * u**2 + 28.0 * u**3 - 15.0 * u**4

    def chi(x):
        x = np.abs(np.asarray(x, dtype=float))
        out = np.zeros_like(x)
        lin = x <= 1 - delta
        taper = (x > 1 - delta) & (x <= 1)
        out[lin] = 1.0 - x[lin]
        out[taper] = delta * g((x[taper] - 1 + delta) / delta)
        return out

    def deriv(x):
        x = np.abs(np.asarray(x, dtype=float))
        out = np.zeros_like(x)
        lin = x <= 1 - delta
        taper = (x > 1 - delta) & (x <= 1)
        out[lin] = -1.0
        out[taper] = gp((x[taper] - 1 + delta) / delta)
        return out

    return SmoothCutoff(
        family_id=f"tent_taper(delta={delta:g})",
        evaluator=chi,
        derivative=deriv,
        breakpoints=(1 - delta, 1.0),
        smooth_at_zero=False,       # kink at 0: derivative means the x>0 branch
    )


def split_sharp_flat():
    """The sharp/flat split of the identity chi(x) = x on x >= 0.

    chi_sharp(x) vanishes for x >= 1 and equals x for x <= 1/2; chi_flat is
    the complement (x - chi_sharp), vanishing for x <= 1/2 and unbounded.
    """

    def sharp(x):
        x = np.asarray(x, dtype=float)
        out = np.where(np.abs(x) >= 1.0, 0.0, x)
        trans = (np.abs(x) > 0.5) & (np.abs(x) < 1.0)
        out = np.where(trans, x * (1.0 - _smoothstep(2.0 * np.abs(x) - 1.0)), out)
        return out

    def sharp_deriv(x):
        x = np.asarray(x, dtype=float)
        s = _smoothstep(2.0 * np.abs(x) - 1.0)
        ds = np.where(
            (np.abs(x) > 0.5) & (np.abs(x) < 1.0),
            30.0 * (2 * np.abs(x) - 1) ** 2 * (1 - (2 * np.abs(x) - 1)) ** 2 * 2.0,
            0.0,
        )
        inner = np.where(np.abs(x) < 1.0, 1.0 - s - x * np.sign(x) * ds, 0.0)
        return np.where(np.abs(x) <= 0.5, 1.0, inner)

    def flat(x):
        x = np.asarray(x, dtype=float)
        return x - sharp(x)

    chi_s = SmoothCutoff(
        family_id="sharp_identity",
        evaluator=sharp,
        derivative=sharp_deriv,
        breakpoints=(0.5, 1.0),
        smooth_at_zero=True,
    )
    return chi_s, flat


# ---------------------------------------------------------------------------
# truncated divisor sums


def truncated_divisor_sum(n, chi, big_r, a):
    """Lambda_{chi,R,a}(n) = log R (sum_{d|n} mu(d) chi(log d / log R))^a.

    Extended to negative n through |n| (the sum only sees divisors); n = 0 raises.
    """
    if big_r <= 1:
        raise ValueError("R must exceed 1")
    log_r = math.log(big_r)
    acc = 0.0
    for d, sign in arith.squarefree_divisors(abs(int(n))):
        if d > chi.support_radius * big_r + 1:
            break
        acc += sign * float(chi(math.log(d) / log_r))
    return log_r * acc**a


def divisor_sum_core_array(chi, big_r, n_max, W=1, b=0):
    """D(W n + b) for n = 0 .. n_max (by default the dense D(n), D(0) = 0), b coprime to W;
    D(m) = sum_{d|m, d squarefree} mu(d) chi(log d/log R).

    A d sharing a prime with W never divides W n + b; each other d adds to its
    class n = -b W^{-1} (mod d), in ascending d.  mu(d) is read for d <= R only,
    from its own table of that size.  R must exceed 1, and n_max passes the
    table guard, before anything is allocated.
    """
    if big_r <= 1:
        raise ValueError("R = N^gamma must exceed 1")
    if math.gcd(b, W) != 1:
        raise ValueError(f"b = {b} is not coprime to W = {W}")
    arith.check_table_size(n_max)
    log_r = math.log(big_r)
    d_hi = int(min(W * n_max + b, math.floor(chi.support_radius * big_r)))
    core = np.full(n_max + 1, float(chi(0.0)))
    mobius = arith.build_tables(max(d_hi, 2)).mobius
    for d in range(2, d_hi + 1):
        mu = int(mobius[d])
        if mu == 0 or math.gcd(d, W) > 1:
            continue
        core[-b * pow(W, -1, d) % d:: d] += mu * float(chi(math.log(d) / log_r))
    if b == 0:
        core[0] = 0.0
    return core


def gy_weight_array(chi, big_r, a, n_max, W=1, b=0):
    """Lambda_{chi,R,a}(W n + b) for n = 0 .. n_max (by default the dense table)."""
    core = divisor_sum_core_array(chi, big_r, n_max, W, b)
    return math.log(big_r) * core**a


def sieve_factor(chi, a):
    """c_{chi,1} = -chi'(0); c_{chi,2} = int_0^inf |chi'|^2 by adaptive quadrature."""
    if a == 1:
        return -float(chi.derivative(0.0))
    if a == 2:
        from scipy.integrate import quad     # scipy is loaded only here; no other path needs it

        pts = [b for b in chi.breakpoints if 0 < b < chi.support_radius]
        val, _ = quad(
            lambda x: float(chi.derivative(x)) ** 2,
            0.0,
            chi.support_radius,
            points=pts or None,
            limit=200,
        )
        return val
    raise ValueError("only a in {1, 2} supported (general-a factors out of scope)")


# ---------------------------------------------------------------------------
# the sharp split of Lambda


def lambda_sharp_array(n_max, big_r, W=1, b=0):
    """Lambda^sharp(m) = -log R sum_{d|m} mu(d) chi_sharp(log d / log R) at m = W n + b, n <= n_max."""
    chi_s, _ = split_sharp_flat()
    core = divisor_sum_core_array(chi_s, big_r, n_max, W, b)
    return -math.log(big_r) * core


def lambda_flat_value(n, big_r):
    """Lambda^flat(n) by direct divisor enumeration (all squarefree divisors)."""
    _, flat = split_sharp_flat()
    log_r = math.log(big_r)
    acc = 0.0
    for d, sign in arith.squarefree_divisors(int(n)):
        acc += sign * float(flat(math.log(d) / log_r))
    return -log_r * acc


def sharp_gowers_check(n_scale, b, wparams, s, gamma):
    """|| (phi(W)/W) Lambda^sharp(W n + b) - 1 ||_{U^{s+1}[N]}."""
    sharp = lambda_sharp_array(n_scale, float(n_scale) ** gamma, wparams.W, b)
    f = wparams.normalizer * sharp[1:] - 1.0
    return gowers.gowers_norm_local(f, s).norm


# ---------------------------------------------------------------------------
# enveloping sieve


@dataclass
class EnvelopingSieve:
    nu: np.ndarray
    n_scale: int
    n_prime: int
    c_factor: int
    gamma: float
    big_r: float
    wparams: object
    b_list: tuple
    chi: SmoothCutoff

    def mean(self):
        return float(self.nu.mean())


def build_enveloping_sieve(n_scale, gamma, w, b_list, c_factor=20, tables=None, chi=None):
    """nu = 1/2 + (1/2) E_i (phi(W)/W) Lambda_{chi,R,2}(W n + b_i) on [N], 1 elsewhere.

    tables is not read; it stays only because perfbench/workloads.py passes it.
    """
    if c_factor < 20:
        raise ValueError("C must be >= 20")
    if not 0 < gamma < 0.6:
        raise ValueError("gamma must lie in (0, 3/5)")
    if not b_list:
        raise ValueError("b_list must not be empty")
    wparams = arith.w_trick(w=w)
    n_prime = arith._next_prime(c_factor * n_scale - 1)        # the least prime >= C N
    if n_prime > 2 * c_factor * n_scale:
        raise AssertionError("Bertrand violated?!")
    big_r = float(n_scale) ** gamma
    if chi is None:
        chi = normalized_bump()
    nu_tilde = np.zeros(n_scale + 1)
    for b in b_list:
        nu_tilde += gy_weight_array(chi, big_r, 2, n_scale, wparams.W, b)
    nu_tilde *= wparams.normalizer / len(b_list)
    nu = np.ones(n_prime)
    nu[1: n_scale + 1] = 0.5 + 0.5 * nu_tilde[1:]
    return EnvelopingSieve(
        nu=nu,
        n_scale=n_scale,
        n_prime=n_prime,
        c_factor=c_factor,
        gamma=gamma,
        big_r=big_r,
        wparams=wparams,
        b_list=tuple(b_list),
        chi=chi,
    )


def domination_constant(sieve):
    """max over n in [N^{3/5}, N] of (1 + sum_i Lambda'_{b_i,W}(n)) / nu(n)."""
    n0 = max(1, math.ceil(sieve.n_scale ** 0.6))
    lhs = np.ones(sieve.n_scale - n0 + 1)
    for b in sieve.b_list:
        lhs += arith.lambda_bw_array(sieve.n_scale, b, sieve.wparams, primed=True, n_lo=n0)
    ratio = lhs / sieve.nu[n0: sieve.n_scale + 1]
    return float(ratio.max())


@dataclass
class LinearFormsResult:
    deviation: float
    expectation: float
    method: str
    stderr: float = 0.0


def linear_forms_check(sieve, sys, sample_budget=2 * 10**6, seed=0):
    """|E_{n in Z_{N'}^d} prod nu(psi_i(n)) - 1|.

    Exact routes: full rank mod N' factors into (E nu)^t; corank 1 reduces to
    a single character sum via the FFT of nu.  Otherwise Monte Carlo with a
    recorded seed and standard error, bit-identical to drawing every sample
    at once (_montecarlo_products).  A sample_budget below 2 has no standard
    error and is refused before any route is chosen.
    """
    if sample_budget < 2:
        raise ValueError(f"sample_budget must be at least 2, not {sample_budget}")
    p = sieve.n_prime
    nu = sieve.nu
    rows = [[c % p for c in f.linear_coeffs] for f in sys.forms]
    consts = [f.constant % p for f in sys.forms]
    t = sys.t
    r = linalg.rank_mod_p(rows, p)
    if r == t:
        e = float(nu.mean()) ** t
        return LinearFormsResult(abs(e - 1.0), e, "exact:product")
    if r == t - 1:
        # left kernel: xi with sum_i xi_i rows[i] = 0 mod p
        transpose = [[rows[i][j] for i in range(t)] for j in range(len(rows[0]))]
        kern = linalg.nullspace_mod_p(transpose, p)
        if len(kern) != 1:
            raise AssertionError("corank mismatch")
        v = kern[0]
        nu_hat = np.fft.fft(nu) / p
        rr = np.arange(p, dtype=np.int64)
        prod = np.ones(p, dtype=complex)
        shift = 0
        for i in range(t):
            prod *= nu_hat[(rr * v[i]) % p]
            shift = (shift + v[i] * consts[i]) % p
        phases = np.exp(2j * np.pi * ((rr * shift) % p) / p)
        e = float(np.real(np.sum(prod * phases)))
        return LinearFormsResult(abs(e - 1.0), e, "exact:character-sum")
    prod = _montecarlo_products(nu, sys, p, sample_budget, seed)
    e = float(prod.mean())
    se = float(prod.std(ddof=1) / math.sqrt(sample_budget))
    return LinearFormsResult(abs(e - 1.0), e, "montecarlo", stderr=se)


def _nu_gather_source(nu, p):
    """(array, mode) for np.take to read nu[v], 0 <= v < p, from.

    That is nu's head up to one entry past its last entry != 1.0, clipped:
    every later index then reads a 1.0, as it does in nu (the whole of nu[:p]
    if its last entry differs).  The last entry != 1.0 is found by blocks of
    MC_CHUNK from the end, with no temporary of p entries.  A nu shorter than
    p keeps numpy's index check.
    """
    if len(nu) < p:
        return nu, "raise"
    for end in range(p, 0, -MC_CHUNK):
        lo = max(end - MC_CHUNK, 0)
        off = np.flatnonzero(nu[lo:end] != 1.0)
        if len(off):
            return nu[:min(lo + int(off[-1]) + 2, p)], "clip"
    return nu[:1], "clip"


def _montecarlo_products(nu, sys, p, sample_budget, seed):
    """prod_i nu(psi_i(n)) at sample_budget draws n from Z_p^d.

    The draws come MC_CHUNK rows at a time: the generator's stream does not
    depend on how they are split, so the samples are the one-shot ones.  Each
    form's value is its constant plus c x_j over the nonzero coefficients, in
    int64 (exact, or wrapping mod 2^64, in any order), then reduced mod p once;
    nu is gathered from its head (_nu_gather_source) and multiplied in form by
    form, as a one-shot draw does.  The chunk buffers are freed on return,
    before the caller's statistics allocate their own.
    """
    src, mode = _nu_gather_source(nu, p)
    prod = np.ones(sample_budget)
    vals = np.empty(MC_CHUNK, dtype=np.int64)
    term = np.empty(MC_CHUNK, dtype=np.int64)
    cols = np.empty((sys.d, MC_CHUNK), dtype=np.int64)
    gathered = np.empty(MC_CHUNK)
    rng = np.random.default_rng(seed)
    for lo in range(0, sample_budget, MC_CHUNK):
        rows = prod[lo:lo + MC_CHUNK]
        m = len(rows)
        x, v, t, g = cols[:, :m], vals[:m], term[:m], gathered[:m]
        np.copyto(x, rng.integers(0, p, size=(m, sys.d)).T)
        for f in sys.forms:
            v.fill(f.constant)
            for j, c in enumerate(f.linear_coeffs):
                if c == 1:
                    np.add(v, x[j], out=v)
                elif c:
                    np.multiply(x[j], c, out=t)
                    np.add(v, t, out=v)
            np.remainder(v, p, out=v)
            np.take(src, v, out=g, mode=mode)
            np.multiply(rows, g, out=rows)
    return prod


# ---------------------------------------------------------------------------
# correlation condition


def tau_weight(sieve, n_values, kappa=1.0, cap=None):
    """Diagnostic tau(n) = mean over residue pairs of exp(kappa sum p^{-1/2}).

    The constants are unspecified in the correlation condition; kappa and the
    tau(0) cap are surfaced as parameters (defaults kappa=1, cap=log^2 N).
    Each W n + bi - bj is factored by arith.factorize; no table is built.
    """
    if cap is None:
        cap = math.log(sieve.n_scale) ** 2
    w = sieve.wparams
    bl = sieve.b_list
    pairs = [(bi, bj) for k, bi in enumerate(bl) for bj in bl[k:]]
    out = []
    for n in n_values:
        acc = 0.0
        for bi, bj in pairs:
            v = w.W * int(n) + bi - bj
            if v == 0:
                acc += cap
                continue
            s = 0.0
            for p in arith.factorize(v):
                if p > w.w:
                    s += p ** -0.5
            acc += min(math.exp(kappa * s), cap)
        out.append(acc / len(pairs))
    return out


def correlation_check(sieve, m, h_list, kappa=1.0, cap=None):
    """lhs = E_n prod_i nu(n + h_i) vs rhs = sum_{i<j} tau(h_i - h_j)."""
    if not 1 < m <= 16:
        raise ValueError("need 1 < m <= 16")
    if len(h_list) != m:
        raise ValueError("h_list must have m entries")
    p, nu = sieve.n_prime, sieve.nu
    prod = np.ones(p)
    for h in h_list:
        h = int(h) % p          # prod[i] *= nu[(i + h) mod p], as two slices: no rolled copy
        prod[:p - h] *= nu[h:]
        prod[p - h:] *= nu[:h]
    lhs = float(prod.mean())
    diffs = [h_list[i] - h_list[j] for i in range(m) for j in range(i + 1, m)]
    rhs = float(sum(tau_weight(sieve, diffs, kappa=kappa, cap=cap)))
    return lhs, rhs, lhs <= rhs


def tau_moments(sieve, tables=None, qs=(1, 2, 3), n_limit=None, kappa=1.0, cap=None):
    """E tau^q over n in [1, n_limit].

    For each residue pair, s(n) = sum of p^{-1/2} over primes w < p <= L with
    p | W n + bi - bj, L = min(W n_limit + max b + 1, W n_limit + W), added in
    ascending p.  A pair with bi = bj reads the primes up to n_limit
    (_rsqrt_sums_of_multiples); any other pair the primes up to
    sqrt(W n_limit + |bi - bj|) (_rsqrt_sums_on_progression), so no table of
    W n_limit entries is built.  tables is not read; it stays only because
    perfbench/workloads.py passes it.
    """
    if cap is None:
        cap = math.log(sieve.n_scale) ** 2
    n_limit = n_limit or sieve.n_scale
    w = sieve.wparams
    bl = sieve.b_list
    pairs = [(bi, bj) for k, bi in enumerate(bl) for bj in bl[k:]]
    limit = min(w.W * n_limit + max(bl) + 1, w.W * n_limit + w.W)
    same = _rsqrt_sums_of_multiples(n_limit, w.w)
    tau = np.zeros(n_limit + 1)
    for bi, bj in pairs:
        s = same if bi == bj else _rsqrt_sums_on_progression(n_limit, w, bi - bj, limit)
        term = np.minimum(np.exp(kappa * s), cap)
        tau += term
    tau /= len(pairs)
    tau = tau[1:]
    return {q: float((tau**q).mean()) for q in qs}


def _rsqrt_sums_of_multiples(n_limit, w):
    """s(n) = sum of p^{-1/2} over primes w < p dividing n, for n = 0 .. n_limit
    (s(0) = 0): one bincount over the hits j p in prime-major order, so every
    s(n) adds its terms in ascending p.  For p > w, p | W n exactly when p | n.
    """
    primes = np.nonzero(arith.prime_sieve(n_limit))[0]
    primes = primes[primes > w]
    reps = n_limit // primes
    j = np.arange(1, int(reps.sum()) + 1) - np.repeat(np.cumsum(reps) - reps, reps)
    return np.bincount(np.repeat(primes, reps) * j,
                       weights=np.repeat([q ** -0.5 for q in primes.tolist()], reps), minlength=n_limit + 1)


def _rsqrt_sums_on_progression(n_limit, wparams, d, limit):
    """s(n) = sum of p^{-1/2} over primes w < p <= limit dividing m = W n + d,
    for n = 0 .. n_limit (s(0) = 0), d != 0, in ascending p.

    Each prime p <= sqrt(max |m|), and each p <= w, is divided out of |m| power
    by power: p^k | m on one class of n mod p^k / gcd(W, p^k), or on none.
    What is left above 1 is the one prime factor of m past that root; it is
    added last.  Where m = 0, every prime divides m, so s is the sum over all
    primes in (w, limit] (_rsqrt_prime_sum).
    """
    W = wparams.W
    r = np.abs(W * np.arange(n_limit + 1, dtype=np.int64) + d)
    r[0] = 1
    m_hi = int(r.max())
    s = np.zeros(n_limit + 1)
    for p in np.flatnonzero(arith.prime_sieve(max(math.isqrt(m_hi), int(wparams.w)))).tolist():
        pk = p
        while pk <= m_hi:
            g = math.gcd(W, pk)
            if d % g:
                break
            step = pk // g
            first = (-d // g) * pow(W // g, -1, step) % step or step
            r[first::step] //= p
            if pk == p and wparams.w < p <= limit:
                s[first::step] += p ** -0.5
            pk *= p
    at = np.flatnonzero(r > 1)
    at = at[r[at] <= limit]
    s[at] += [q ** -0.5 for q in r[at].tolist()]
    zero = -d // W
    if d % W == 0 and 1 <= zero <= n_limit:
        s[zero] = _rsqrt_prime_sum(wparams.w, limit)
    return s


def _rsqrt_prime_sum(lo, hi):
    """The sum of p^{-1/2} over the primes lo < p <= hi, added one at a time in
    ascending p, from sieve segments of 2^16 entries."""
    seg = 2**16
    acc = 0.0
    for a in range(int(lo) + 1, hi + 1, seg):
        for q in (a + np.flatnonzero(arith.prime_sieve(min(a + seg - 1, hi), n_lo=a))).tolist():
            acc += q ** -0.5
    return acc


# ---------------------------------------------------------------------------
# Goldston-Yildirim estimate check


def gy_estimate_check(sys, body, chi_list, a_list, gamma, p_max=10**5):
    """Empirical sum of prod Lambda_{chi_i,R,a_i}(psi_i(n)) over K against
    prod c_{chi_i,a_i} * |K| * prod_{p<=p_max} beta_p.

    The weights build their own R-sized mu table; no form-sized table is built.
    """
    from .localfactors import singular_series

    n_scale = body.box_bound
    big_r = float(n_scale) ** gamma
    m_max = max(counting._form_bound(body, f) or 0 for f in sys.forms)     # 0 on an empty K
    weights = [
        counting.weight_from_table(
            f"gy[{chi.family_id},a={a}]",
            gy_weight_array(chi, big_r, a, m_max + 2),
            reflect_negative=True,
        )
        for chi, a in zip(chi_list, a_list)
    ]
    empirical = counting.weighted_count(sys, body, weights)
    ss = singular_series(sys, p_max)
    vol = body.lattice_point_count()
    c_prod = math.prod(sieve_factor(chi, a) for chi, a in zip(chi_list, a_list))
    predicted = c_prod * vol * ss.truncated_product
    return {
        "empirical": empirical,
        "predicted": predicted,
        "ratio": empirical / predicted if predicted else None,      # JSON null, not NaN
        "R": big_r,
        "sieve_factors": c_prod,
        "singular_series": ss.truncated_product,
        "volume": vol,
    }
