"""Sieve-built tables of arithmetic functions and the W-trick.

All tables are numpy arrays indexed by n (index 0 unused).  build_tables
sieves the primes; every other field (FIELDS) is built on its first read and
cached, so a run pays only for the fields it uses.  Construction is
vectorised: mobius/liouville strip prime factors p <= sqrt(n_max) and flip
signs for the single large leftover prime.  Single integers are factored by
factorize, the one factorization helper, which needs no table.
"""

import math
import struct
from dataclasses import dataclass
from functools import cached_property

import numpy as np

_MAGIC = b"APTBL\x00\x01\x00"

FIELDS = ("von_mangoldt", "von_mangoldt_prime", "mobius", "liouville")

TABLE_GUARD = 3 * 10**8         # most entries build_tables allocates (it counts entries, not bytes)


class ResourceGuard(ValueError):
    """A table or run too large to allocate; raised before anything is allocated."""


@dataclass
class ArithTables:
    """is_prime and primes up to n_max; each name in FIELDS is a cached
    property computed on first read (load may supply it from a cache)."""

    n_max: int
    is_prime: np.ndarray            # bool, length n_max+1
    primes: np.ndarray              # int64, sorted

    @cached_property
    def prime_mask(self):
        return self.is_prime.view(np.uint8)

    def _small_primes(self):
        """The primes p <= sqrt(n_max) as Python ints."""
        return self.primes[: np.searchsorted(self.primes, math.isqrt(self.n_max), "right")].tolist()

    @cached_property
    def von_mangoldt_prime(self):
        """Lambda'(n): log p at primes, 0 elsewhere (float64)."""
        vmp = np.zeros(self.n_max + 1)
        vmp[self.primes] = np.log(self.primes.astype(np.float64))
        return vmp

    @cached_property
    def von_mangoldt(self):
        """Lambda(n): log p at prime powers p^k, 0 elsewhere (float64)."""
        vm = np.zeros(self.n_max + 1)
        vm[self.primes] = np.log(self.primes.astype(np.float64))
        for p in self._small_primes():
            lp = math.log(p)
            pk = p * p
            while pk <= self.n_max:
                vm[pk] = lp
                pk *= p
        return vm

    @cached_property
    def mobius(self):
        """mu(n), int8."""
        mob = np.ones(self.n_max + 1, dtype=np.int8)
        small = self._small_primes()
        for p in small:
            mob[p::p] *= -1
            mob[p * p:: p * p] = 0
        mob[_has_large_prime(self.n_max, small)] *= -1
        mob[0] = 0
        return mob

    @cached_property
    def liouville(self):
        """lambda(n) = (-1)^Omega(n), int8."""
        lio = np.ones(self.n_max + 1, dtype=np.int8)
        small = self._small_primes()
        for p in small:
            pk = p
            while pk <= self.n_max:
                lio[pk::pk] *= -1
                pk *= p
        lio[_has_large_prime(self.n_max, small)] *= -1
        lio[0] = 0
        return lio

    def save(self, path):
        """Binary cache of is_prime and every field, building any not yet read
        (see _write_records)."""
        arrays = {"is_prime": self.is_prime.view(np.uint8)}
        arrays.update((f, getattr(self, f)) for f in FIELDS)
        _write_records(path, self.n_max, arrays)

    @classmethod
    def load(cls, path):
        """Tables from a save file; fields absent from the file are built on first read."""
        n_max, records = _read_records(path)
        arrays = dict(records)
        for name, arr in arrays.items():
            if name != "is_prime" and name not in FIELDS:
                raise ValueError(f"{path}: unknown field {name!r}")
            if len(arr) != n_max + 1:
                raise ValueError(f"{path}: {name} has {len(arr)} entries, expected {n_max + 1}")
        is_prime = arrays.pop("is_prime").view(bool)
        primes = np.nonzero(is_prime)[0].astype(np.int64)
        t = cls(n_max=n_max, is_prime=is_prime, primes=primes)
        t.__dict__.update(arrays)
        return t


def _has_large_prime(n_max, small):
    """Mask of n <= n_max with a prime factor > sqrt(n_max).

    rem holds what is left of n after dividing out all p <= sqrt(n_max); a
    leftover > 1 is a single large prime.
    """
    rem = np.arange(n_max + 1, dtype=np.int64)
    for p in small:
        rem[p::p] //= p
        pk = p * p
        while pk <= n_max:
            rem[pk::pk] //= p
            pk *= p
    return rem > 1


def _write_records(path, n_max, arrays):
    """Little-endian cache: magic, n_max, record count, then per named array
    three length-prefixed fields: name, dtype string and raw data."""
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<qq", int(n_max), len(arrays)))
        for name, arr in arrays.items():
            for data in (name.encode(), arr.dtype.str.encode(), np.ascontiguousarray(arr).tobytes()):
                fh.write(struct.pack("<q", len(data)))
                fh.write(data)


def _read_records(path):
    """(n_max, [(name, array), ...]) from a _write_records file.

    Raises ValueError on a bad header or any short read, so a truncated
    cache is never loaded.
    """
    with open(path, "rb") as fh:
        if fh.read(len(_MAGIC)) != _MAGIC:
            raise ValueError("bad magic header")

        def read(n):
            data = fh.read(n) if n >= 0 else b""
            if len(data) != n:
                raise ValueError(f"{path}: truncated cache")
            return data

        def field():
            return read(struct.unpack("<q", read(8))[0])

        n_max, count = struct.unpack("<qq", read(16))
        records = []
        for _ in range(count):
            name, dt = field().decode(), np.dtype(field().decode())
            records.append((name, np.frombuffer(field(), dtype=dt).copy()))
    return n_max, records


def save_array(path, name, arr, n_max):
    """Single named array in the same little-endian magic-header format."""
    _write_records(path, n_max, {name: arr})


def load_array(path):
    """(name, array, n_max) from a single-array cache file."""
    n_max, records = _read_records(path)
    if len(records) != 1:
        raise ValueError("expected a single-array cache")
    (name, arr), = records
    return name, arr, n_max


def prime_sieve(n_max):
    is_p = np.ones(n_max + 1, dtype=bool)
    is_p[:2] = False
    for p in range(2, math.isqrt(n_max) + 1):
        if is_p[p]:
            is_p[p * p:: p] = False
    return is_p


def build_tables(n_max):
    """ArithTables up to n_max <= TABLE_GUARD: primes now, every other field on first read."""
    n_max = int(n_max)
    if n_max < 2:
        raise ValueError("n_max must be >= 2")
    if n_max > TABLE_GUARD:
        raise ResourceGuard(f"table of size {n_max} exceeds the {TABLE_GUARD} guard")
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
        while p <= w:
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


def lambda_bw(n, b, params, tables, primed=False):
    """(phi(W)/W) * Lambda(W n + b), or the Lambda' variant when primed."""
    if math.gcd(b, params.W) != 1:
        raise ValueError("b must be coprime to W")
    m = params.W * int(n) + b
    if m > tables.n_max:
        raise ValueError("W n + b exceeds the table range")
    if m < 1:
        return 0.0
    table = tables.von_mangoldt_prime if primed else tables.von_mangoldt
    return params.normalizer * float(table[m])


def lambda_bw_array(n_hi, b, params, tables, primed=False, n_lo=1):
    """Vector of Lambda_{b,W}(n) for n = n_lo .. n_hi."""
    if math.gcd(b, params.W) != 1:
        raise ValueError("b must be coprime to W")
    if params.W * n_hi + b > tables.n_max:
        raise ValueError("W n + b exceeds the table range")
    table = tables.von_mangoldt_prime if primed else tables.von_mangoldt
    return params.normalizer * table[params.W * n_lo + b: params.W * n_hi + b + 1: params.W]
