import hashlib
import math

import numpy as np
import pytest

from affprimes import arith


@pytest.fixture(scope="session")
def tables_1e6():
    return arith.build_tables(10**6)


@pytest.fixture(scope="session")
def tables_4e6():
    """Covers W*N + b for W = 30, N = 1e5 experiments."""
    return arith.build_tables(4 * 10**6)


def _spf_sieve(n_max):
    """Smallest prime factor of each n <= n_max, int32 (spf[1] = 1), sieved;
    the oracle of arith.factorize."""
    spf = np.zeros(n_max + 1, dtype=np.int32)
    for p in np.flatnonzero(arith.prime_sieve(math.isqrt(n_max))).tolist():
        sl = spf[p::p]
        sl[sl == 0] = p
    rest = spf[2:] == 0     # entries with no factor <= sqrt(n_max) are prime
    spf[2:][rest] = np.arange(2, n_max + 1, dtype=np.int32)[rest]
    spf[1] = 1
    return spf


@pytest.fixture(scope="session")
def spf_sieve():
    return _spf_sieve


@pytest.fixture(scope="session")
def spf_factor():
    """{p: exponent} of 1 <= n <= 1e6 by repeated lookups in a sieved
    smallest-prime-factor table."""
    spf = _spf_sieve(10**6)

    def factor(n):
        out = {}
        while n > 1:
            p = int(spf[n])
            out[p] = out.get(p, 0) + 1
            n //= p
        return out

    return factor


@pytest.fixture
def rng(request):
    """A generator per test, seeded from its node id, so that a test's draws do
    not depend on which tests ran before it in the session."""
    digest = hashlib.sha256(request.node.nodeid.encode()).digest()
    return np.random.default_rng([20260810, int.from_bytes(digest[:8], "little")])
