"""Local factors beta_p, singular series, local densities and exceptional primes.

beta_p = (p/(p-1))^t p^{-d} #{n in F_p^d : p does not divide any psi_i(n)},
computed by inclusion-exclusion: the subsystem {psi_i = 0 : i in S} has
p^(d - rank_S) solutions mod p when consistent, none otherwise.  Rank and
consistency are constant in p outside a finite exceptional set (primes
dividing invariant factors of the subsystem matrices), which makes the
truncated Euler product computable vectorised over all primes <= P_max
with exact Fraction values at the finitely many bad primes.
"""

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import linalg
from .arith import factorize, prime_sieve
from .forms import parameterize_matrix_system


@dataclass
class SubsetProfile:
    rank: int
    consistent: bool


def _rank_and_primes(mat):
    """Rank over Q of an integer matrix and the primes mod which it drops, from
    one Smith form: the nonzero invariant factors and the primes of those > 1."""
    d = linalg.smith_normal_form(mat, transforms=False)
    return sum(x != 0 for x in d), {p for x in d if x > 1 for p in factorize(x)}


class SystemLocalData:
    """Per-subset ranks/consistency over Q plus the primes where they change.

    A subset S whose constants are all 0 takes one Smith form, not two:
    [M_S | 0] has M_S's nonzero invariant factors, so its rank and primes.
    """

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
            r, ps = _rank_and_primes([rows[i] for i in idx])
            r_aug, ps_aug = (_rank_and_primes([rows[i] + [-consts[i]] for i in idx])
                             if any(consts[i] for i in idx) else (r, ps))
            self.profiles[mask] = SubsetProfile(rank=r, consistent=(r_aug == r))
            bad |= ps | ps_aug
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
        """Exact generic-formula beta_p (valid off the exceptional set), as one
        Fraction: sum_r c p^(R-r) over p^R, R the largest rank, times (p/(p-1))^t."""
        top = self.generic_coeff[-1][0]
        num = sum(c * p ** (top - r) for r, c in self.generic_coeff)
        return Fraction(p**self.sys.t * num, (p - 1) ** self.sys.t * p**top)

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
        # one reduction of the augmented rows: the subset is consistent iff the
        # constants' column holds no pivot, and its rank is the number of pivots
        pivots = linalg._pivots_mod_p([rows[i] + [-consts[i]] for i in idx], p)
        if sys.d not in pivots:
            total += Fraction(-1 if len(idx) % 2 else 1, p ** len(pivots))
    return Fraction(p, p - 1) ** t * total


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

    def rows(self):
        for p, b in zip(self.primes, self.beta):
            yield p, b.numerator, b.denominator, float(b)


def local_profile(sys, p_max):
    """Exact beta_p (Fractions) for all primes up to p_max.

    Off the exceptional primes the subsystem ranks and consistency mod p are
    the rational ones, so beta_p is the generic formula; only the exceptional
    primes go through `local_factor`, as in `singular_series`.
    """
    if p_max < 1:
        raise ValueError(f"pmax must be at least 1, not {p_max}")
    data = SystemLocalData(sys)
    exceptional = set(data.exceptional)
    mask = prime_sieve(p_max)
    primes = [int(p) for p in np.nonzero(mask)[0]]
    beta = [local_factor(sys, p) if p in exceptional else data.generic_beta(p) for p in primes]
    return LocalProfile(primes=primes, beta=beta)


@dataclass
class SingularSeries:
    truncated_product: float
    tail_log_bound: float
    vanishing: bool
    envelope_constant: float
    exceptional_primes: list
    log_product: float


def singular_series(sys, p_max, min_prime=2):
    """Truncated Euler product prod_{min_prime <= p <= p_max} beta_p.

    Exceptional primes (where subsystem ranks drop mod p) are evaluated with
    exact rationals; all other primes go through the generic rank profile,
    vectorised.  The tail bound fits an empirical envelope c = max p^2|beta_p - 1|
    over the last decade of primes and bounds |log(full/truncated)| by c/p_max.
    """
    if p_max < 1:
        raise ValueError(f"pmax must be at least 1, not {p_max}")
    data = SystemLocalData(sys)
    mask = prime_sieve(p_max)
    primes = np.nonzero(mask)[0].astype(np.int64)
    primes = primes[primes >= min_prime]
    exc = [p for p in data.exceptional if min_prime <= p <= p_max]
    generic = primes[~np.isin(primes, exc)]
    beta = beta_all = data.generic_beta_array(generic)
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
    # envelope over the last decade of generic primes, sliced from beta before its filter
    decade = np.searchsorted(generic, max(p_max // 10, 2))
    envelope = (float(np.max(generic[decade:].astype(np.float64) ** 2 * np.abs(beta_all[decade:] - 1.0)))
                if decade < len(generic) else 0.0)
    tail = envelope / p_max
    product = 0.0 if vanishing else math.exp(log_sum)
    return SingularSeries(
        truncated_product=product,
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
    That gcd is d1·d2 for the Smith invariant factors d1 | d2, so it has the
    primes of d2 and is 0 iff d2 is.  A pair that is dependent over Q makes
    the set infinite: error.
    """
    rows = [list(f.linear_coeffs) + [f.constant] for f in sys.forms]
    out = set()
    for i, j in itertools.combinations(range(sys.t), 2):
        d2 = linalg.smith_normal_form([rows[i], rows[j]], transforms=False)[1]
        if d2 == 0:
            raise ValueError(f"forms {i}, {j} are parallel over Q: infinite exceptional set")
        if d2 > 1:
            ps = set(factorize(d2))
            if p_limit is not None:
                ps = {p for p in ps if p <= p_limit}
            out |= ps
    primes = sorted(out)
    return ExceptionalPrimeSet(primes=primes, X=sum(p ** -0.5 for p in primes))
