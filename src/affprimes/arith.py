"""Sieve-built tables of arithmetic functions and the W-trick.

All tables are numpy arrays indexed by n (index 0 unused).  build_tables
sieves the primes; every other field (FIELDS) is built on its first read and
cached, so a run pays only for the fields it uses.  Construction is
vectorised: mobius/liouville sieve by the primes p <= sqrt(n_max), then
multiply once by an int8 sign array, -1 at each multiple of a larger prime.
prime_sieve and von_mangoldt_on cover any progression W n + b, the dense
table being W = 1, b = 0, so the W-trick sieves only its progression.
Single integers are factored by factorize, the one factorization helper,
which needs no table.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

FIELDS = ("von_mangoldt", "von_mangoldt_prime", "mobius", "liouville")

TABLE_GUARD = 3 * 10**8         # most entries prime_sieve allocates (it counts entries, not bytes)


class ResourceGuard(ValueError):
    """A table or run too large to allocate; raised before anything is allocated."""


@dataclass
class ArithTables:
    """is_prime and primes up to n_max; each name in FIELDS is a cached
    property computed on first read."""

    n_max: int
    is_prime: np.ndarray            # bool, length n_max+1
    primes: np.ndarray              # int64, sorted

    @cached_property
    def prime_mask(self):
        return self.is_prime.view(np.uint8)

    @cached_property
    def von_mangoldt_prime(self):
        """Lambda'(n): log p at primes, 0 elsewhere (float64)."""
        return von_mangoldt_on(self.is_prime, primed=True)

    @cached_property
    def von_mangoldt(self):
        """Lambda(n): log p at prime powers p^k, 0 elsewhere (float64)."""
        return von_mangoldt_on(self.is_prime)

    @cached_property
    def mobius(self):
        """mu(n), int8."""
        mob = np.ones(self.n_max + 1, dtype=np.int8)
        small = _sieving_primes(self.n_max)
        for p in small:
            mob[p::p] *= -1
            mob[p * p:: p * p] = 0
        mob *= _large_prime_sign(self.n_max, self.primes)
        mob[0] = 0
        return mob

    @cached_property
    def liouville(self):
        """lambda(n) = (-1)^Omega(n), int8."""
        lio = np.ones(self.n_max + 1, dtype=np.int8)
        small = _sieving_primes(self.n_max)
        for p in small:
            pk = p
            while pk <= self.n_max:
                lio[pk::pk] *= -1
                pk *= p
        lio *= _large_prime_sign(self.n_max, self.primes)
        lio[0] = 0
        return lio


def _large_prime_sign(n_max, primes):
    """int8 over 0..n_max: -1 at each n with a prime factor > sqrt(n_max), else +1.

    Such a factor q has q^2 > n_max, so n has at most one; the array is -1 at
    the multiples k q of every large prime q, for k = 1, 2, .. while k q <= n_max
    (there is one for n_max >= 2: a prime lies in (n_max/2, n_max]).  One
    multiply by it costs less than a masked flip's gather and scatter.
    """
    sign = np.ones(n_max + 1, dtype=np.int8)
    large = primes[np.searchsorted(primes, math.isqrt(n_max), side="right"):]
    ks = np.arange(1, n_max // int(large[0]) + 1)
    # the large q with k q <= n_max are a prefix of the sorted primes
    for k, c in zip(ks.tolist(), np.searchsorted(large, n_max // ks, side="right").tolist()):
        sign[k * large[:c]] = -1
    return sign


def check_table_size(n_max):
    """Raise ResourceGuard for a table over 0..n_max with n_max > TABLE_GUARD."""
    if n_max > TABLE_GUARD:
        raise ResourceGuard(f"table of size {n_max} exceeds the {TABLE_GUARD} guard")


def prime_sieve(n_hi, W=1, b=0, n_lo=0):
    """is_prime(W n + b) for n_lo <= n <= n_hi (by default the dense 0..n_hi), b coprime to W.

    The primes p <= sqrt(W n_hi + b) come from a dense run of this function; each p not
    dividing W strikes its class n = -b W^{-1} (mod p) from p^2 on.  The length passes
    the table guard before anything is allocated.
    """
    if math.gcd(b, W) != 1:
        raise ValueError(f"b = {b} is not coprime to W = {W}")
    check_table_size(n_hi - n_lo)
    is_p = np.ones(n_hi - n_lo + 1, dtype=bool)
    is_p[: max(0, -(-(2 - b) // W) - n_lo)] = False        # W n + b < 2
    for p in _sieving_primes(W * n_hi + b):
        if W % p:
            first = max(n_lo, -((b - p * p) // W))              # the least n with W n + b >= p^2
            is_p[first - n_lo + (-b * pow(W, -1, p) - first) % p:: p] = False
    return is_p


def _sieving_primes(m_hi):
    """The primes p <= sqrt(m_hi) as Python ints."""
    root = math.isqrt(max(m_hi, 0))
    return np.flatnonzero(prime_sieve(root)).tolist() if root > 1 else []


def von_mangoldt_on(is_p, W=1, b=0, n_lo=0, primed=False):
    """Lambda(W n + b) for n = n_lo, n_lo + 1, .. given is_p = prime_sieve(n_hi, W, b, n_lo):
    log m at the primes m and, unless primed (Lambda'), log p at the powers p^k, k >= 2 (float64)."""
    vm = np.zeros(len(is_p))
    at = np.flatnonzero(is_p)
    vm[at] = np.log((W * (at + n_lo) + b).astype(np.float64))
    m_lo, m_hi = W * n_lo + b, W * (n_lo + len(is_p) - 1) + b
    for p in [] if primed else _sieving_primes(m_hi):
        pk = p * p
        while pk <= m_hi:
            if pk >= m_lo and (pk - b) % W == 0:
                vm[(pk - m_lo) // W] = math.log(p)
            pk *= p
    return vm


def build_tables(n_max):
    """ArithTables up to n_max <= TABLE_GUARD: primes now, every other field on first read."""
    n_max = int(n_max)
    if n_max < 2:
        raise ValueError("n_max must be >= 2")
    is_p = prime_sieve(n_max)
    return ArithTables(n_max=n_max, is_prime=is_p, primes=np.nonzero(is_p)[0].astype(np.int64))


# ---------------------------------------------------------------------------
# W-trick


@dataclass(frozen=True)
class WTrickParams:
    w: float
    W: int
    residues: tuple

    @property
    def phi_W(self):
        return len(self.residues)

    @property
    def normalizer(self):
        """phi(W)/W."""
        return self.phi_W / self.W


def w_trick(w=None, W=None):
    """Build W = prod_{p <= w} p and the coprime residue list.

    Either a threshold w or an explicit primorial W may be given; a W that
    is not a primorial is rejected.
    """
    if (w is None) == (W is None):
        raise ValueError("give exactly one of w, W")
    if w is not None:
        if w < 2:
            raise ValueError("w must be >= 2")
        prod = 1
        p = 2
        while p <= w and prod <= TABLE_GUARD:
            prod *= p
            p = _next_prime(p)
        W = prod
    else:
        W = int(W)
        if W < 2:
            raise ValueError("W must be >= 2")
        prod, p = 1, 2
        while prod < W:
            prod *= p
            p = _next_prime(p)
        if prod != W:
            raise ValueError(f"{W} is not a primorial")
        w = float(_prev_prime(p))
    check_table_size(W)         # the residue list below is a loop over 1..W
    residues = tuple(b for b in range(1, W + 1) if math.gcd(b, W) == 1)
    return WTrickParams(w=float(w), W=W, residues=residues)


_TRIAL_LIMIT = 1000             # factorize trial-divides by 2 and the odd numbers below this
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n):
    """Miller-Rabin with the first 13 primes as bases.

    Exact for n < 3317044064679887385961981 (about 3.3e24, the least strong
    pseudoprime to all 13 bases); above it, a strong probable-prime test.
    """
    n = int(n)
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rho_factor(n):
    """A proper factor of the odd composite n without factors below _TRIAL_LIMIT (Pollard-Brent rho)."""
    for c in range(1, n):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += 128
            r *= 2
        if g == n:              # the batch overshot: redo it one step at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
    raise ArithmeticError(f"no factor of {n} found")


def factorize(n):
    """Prime factorization {p: exponent} of |n|, primes ascending; {} for 0 and +-1.

    Trial division by small numbers, then is_prime and Pollard-Brent rho on
    the cofactor, so a large prime factor costs a few modular powers rather
    than sqrt(n) divisions.  Above 3.3e24 the primality of a factor is
    probable (is_prime); the product of the factors is checked against n.
    """
    m = n = abs(int(n))
    out = {}
    p = 2
    while p < _TRIAL_LIMIT and p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1 if p == 2 else 2
    rest = [n] if n > 1 else []
    while rest:
        q = rest.pop()
        if is_prime(q):
            out[q] = out.get(q, 0) + 1
        else:
            f = _rho_factor(q)
            rest += [f, q // f]
    if m > 1 and math.prod(p**e for p, e in out.items()) != m:
        raise ArithmeticError(f"factorization of {m} failed")
    return dict(sorted(out.items()))


def squarefree_divisors(n):
    """Sorted squarefree divisors d of n >= 1 with their signs mu(d)."""
    if n < 1:
        raise ValueError("squarefree_divisors expects n >= 1")
    divs = [(1, 1)]
    for p in factorize(n):
        divs += [(d * p, -s) for d, s in divs]
    return sorted(divs)


def _next_prime(p):
    q = p + 1
    while not is_prime(q):
        q += 1
    return q


def _prev_prime(p):
    for q in range(p - 1, 1, -1):
        if is_prime(q):
            return q
    raise ValueError("no prime below 2")


def lambda_bw(n, b, params, primed=False):
    """(phi(W)/W) * Lambda(W n + b), or the Lambda' variant when primed."""
    return float(lambda_bw_array(n, b, params, primed, n_lo=n)[0])


def lambda_bw_array(n_hi, b, params, primed=False, n_lo=1):
    """Vector of Lambda_{b,W}(n) for n = n_lo .. n_hi, sieved on the progression W n + b only."""
    is_p = prime_sieve(n_hi, params.W, b, n_lo)
    return params.normalizer * von_mangoldt_on(is_p, params.W, b, n_lo, primed)
