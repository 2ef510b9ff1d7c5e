"""Local factors beta_p, singular series, local densities and exceptional primes.

beta_p = (p/(p-1))^t p^{-d} #{n in F_p^d : p does not divide any psi_i(n)},
computed by inclusion-exclusion: the subsystem {psi_i = 0 : i in S} has
p^(d - rank_S) solutions mod p when consistent, none otherwise.  Rank and
consistency are constant in p outside a finite exceptional set (primes
dividing invariant factors of the subsystem matrices), which makes the
truncated Euler product computable vectorised over all primes <= P_max
with exact Fraction values at the finitely many bad primes.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import linalg
from .arith import factorize, prime_sieve
from .forms import parameterize_matrix_system


def euler_phi(q):
    out = q
    for p in factorize(q):
        out -= out // p
    return out


def local_von_mangoldt(q, b):
    """Lambda_{Z_q}(b) = q/phi(q) on units, 0 otherwise; q-periodic in b."""
    if q < 1:
        raise ValueError("q must be >= 1")
    if q == 1:
        return Fraction(1)
    if math.gcd(b % q, q) != 1:
        return Fraction(0)
    return Fraction(q, euler_phi(q))


@dataclass
class SubsetProfile:
    rank: int
    consistent: bool


class SystemLocalData:
    """Per-subset ranks/consistency over Q plus the primes where they change."""

    def __init__(self, sys):
        self.sys = sys
        rows = sys.coefficient_matrix()
        consts = sys.constants()
        t = sys.t
        if t > 20:
            raise ValueError("inclusion-exclusion limited to t <= 20 forms")
        self.profiles = {}
        bad = set()
        for mask in range(1, 1 << t):
            idx = [i for i in range(t) if mask >> i & 1]
            sub = [rows[i] for i in idx]
            aug = [rows[i] + [-consts[i]] for i in idx]
            r = linalg.rank(sub)
            r_aug = linalg.rank(aug)
            self.profiles[mask] = SubsetProfile(rank=r, consistent=(r_aug == r))
            bad |= linalg.invariant_factor_primes(sub)
            bad |= linalg.invariant_factor_primes(aug)
        self.exceptional = sorted(bad)
        # generic beta_p = (p/(p-1))^t * sum_r coeff[r] p^{-r}
        coeff = {}
        for mask, prof in self.profiles.items():
            if not prof.consistent:
                continue
            sign = -1 if bin(mask).count("1") % 2 else 1
            coeff[prof.rank] = coeff.get(prof.rank, 0) + sign
        coeff[0] = coeff.get(0, 0) + 1      # empty subset
        self.generic_coeff = sorted(coeff.items())

    def generic_beta(self, p):
        """Exact generic-formula beta_p (valid off the exceptional set)."""
        acc = Fraction(0)
        for r, c in self.generic_coeff:
            acc += Fraction(c, p**r)
        return Fraction(p, p - 1) ** self.sys.t * acc

    def generic_beta_array(self, primes):
        """Float beta_p over a numpy prime array, generic formula."""
        p = primes.astype(np.float64)
        acc = np.zeros_like(p)
        for r, c in self.generic_coeff:
            acc += c * p ** (-float(r))
        return (p / (p - 1.0)) ** self.sys.t * acc


def local_factor(sys, p):
    """Exact beta_p by inclusion-exclusion with ranks over F_p."""
    rows = sys.coefficient_matrix()
    consts = sys.constants()
    t = sys.t
    if t > 20:
        raise ValueError("inclusion-exclusion limited to t <= 20 forms")
    total = Fraction(1)     # empty subset
    for mask in range(1, 1 << t):
        idx = [i for i in range(t) if mask >> i & 1]
        sub = [rows[i] for i in idx]
        rhs = [-consts[i] for i in idx]
        if not linalg.consistent_mod_p(sub, rhs, p):
            continue
        r = linalg.rank_mod_p(sub, p)
        sign = -1 if len(idx) % 2 else 1
        total += Fraction(sign, p**r)
    return Fraction(p, p - 1) ** t * total


def local_factor_q(sys, q):
    """beta_q for squarefree q via multiplicativity (beta_q = prod beta_p)."""
    if q < 1:
        raise ValueError("q must be >= 1")
    primes = factorize(q)
    if any(e > 1 for e in primes.values()):
        raise ValueError("q must be squarefree")
    return math.prod((local_factor(sys, p) for p in primes), start=Fraction(1))


def ap_k_local_factor(k, p):
    """Closed-form beta_p for the length-k progression system."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if k == 1:
        return Fraction(1)
    base = Fraction(p, p - 1) ** (k - 1)
    if p <= k:
        return base / p
    return (1 - Fraction(k - 1, p)) * base


@dataclass
class LocalProfile:
    primes: list
    beta: list                  # exact Fractions, aligned with primes
    system_ref: object

    def rows(self):
        for p, b in zip(self.primes, self.beta):
            yield p, b.numerator, b.denominator, float(b)


def local_profile(sys, p_max):
    """Exact beta_p (Fractions) for all primes up to p_max.

    Off the exceptional primes the subsystem ranks and consistency mod p are
    the rational ones, so beta_p is the generic formula; only the exceptional
    primes go through `local_factor`, as in `singular_series`.
    """
    data = SystemLocalData(sys)
    exceptional = set(data.exceptional)
    mask = prime_sieve(p_max)
    primes = [int(p) for p in np.nonzero(mask)[0]]
    beta = [local_factor(sys, p) if p in exceptional else data.generic_beta(p) for p in primes]
    return LocalProfile(primes=primes, beta=beta, system_ref=sys)


@dataclass
class SingularSeries:
    truncated_product: float
    p_max: int
    tail_log_bound: float
    vanishing: bool
    envelope_constant: float
    exceptional_primes: list
    log_product: float

    @property
    def value(self):
        return 0.0 if self.vanishing else self.truncated_product


def singular_series(sys, p_max, min_prime=2):
    """Truncated Euler product prod_{min_prime <= p <= p_max} beta_p.

    Exceptional primes (where subsystem ranks drop mod p) are evaluated with
    exact rationals; all other primes go through the generic rank profile,
    vectorised.  The tail bound fits an empirical envelope c = max p^2|beta_p - 1|
    over the last decade of primes and bounds |log(full/truncated)| by c/p_max.
    """
    data = SystemLocalData(sys)
    mask = prime_sieve(p_max)
    primes = np.nonzero(mask)[0].astype(np.int64)
    primes = primes[primes >= min_prime]
    exc = [p for p in data.exceptional if min_prime <= p <= p_max]
    generic = primes[~np.isin(primes, exc)]
    beta = data.generic_beta_array(generic)
    vanishing = False
    log_sum = 0.0
    bad = beta <= 0
    if bad.any():
        for p in generic[bad]:
            b = local_factor(sys, int(p))
            if b == 0:
                vanishing = True
            else:
                log_sum += math.log(float(b))
        beta = beta[~bad]
    log_sum += float(np.log(beta).sum())
    for p in exc:
        b = local_factor(sys, p)
        if b == 0:
            vanishing = True
        else:
            log_sum += math.log(float(b))
    # envelope over the last decade of generic primes
    decade = generic[generic >= max(p_max // 10, 2)]
    if len(decade):
        db = data.generic_beta_array(decade)
        envelope = float(np.max(decade.astype(np.float64) ** 2 * np.abs(db - 1.0)))
    else:
        envelope = 0.0
    tail = envelope / p_max
    product = 0.0 if vanishing else math.exp(log_sum)
    return SingularSeries(
        truncated_product=product,
        p_max=p_max,
        tail_log_bound=tail,
        vanishing=vanishing,
        envelope_constant=envelope,
        exceptional_primes=exc,
        log_product=log_sum,
    )


# ---------------------------------------------------------------------------
# local densities for matrix systems


def alpha_p(a_rows, b, p):
    """Local density of {A x = b} at p, via the lattice parameterization."""
    sys, _ = parameterize_matrix_system(a_rows, b)
    return local_factor(sys, p)



# ---------------------------------------------------------------------------
# exceptional primes


@dataclass
class ExceptionalPrimeSet:
    primes: list
    X: float


def exceptional_primes(sys, p_limit=None):
    """Primes p where two forms become linearly dependent mod p.

    For the pair (i, j) these are the primes dividing every 2x2 minor of the
    2 x (d+1) matrix of homogeneous coefficients extended by the constants.
    A pair that is dependent over Q makes the set infinite: error.
    """
    t, d = sys.t, sys.d
    out = set()
    for i in range(t):
        for j in range(i + 1, t):
            a = list(sys.forms[i].linear_coeffs) + [sys.forms[i].constant]
            b = list(sys.forms[j].linear_coeffs) + [sys.forms[j].constant]
            g = 0
            for k in range(d + 1):
                for l in range(k + 1, d + 1):
                    g = math.gcd(g, abs(a[k] * b[l] - a[l] * b[k]))
            if g == 0:
                raise ValueError(f"forms {i}, {j} are parallel over Q: infinite exceptional set")
            if g > 1:
                ps = set(factorize(g))
                if p_limit is not None:
                    ps = {p for p in ps if p <= p_limit}
                out |= ps
    primes = sorted(out)
    return ExceptionalPrimeSet(primes=primes, X=sum(p ** -0.5 for p in primes))
