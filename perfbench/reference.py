"""Independent reference arithmetic the benchmark checks phik's outputs against.

Nothing here imports phik.  Closed forms come from the prime-power formula
phi_k(p) = (p - 1)((p - 1)**k - (-1)**k) / p; partial sums come from a
numpy sieve that multiplies in prime-power factors modulo 2**64, a route
that shares no code and no algorithm with either of phik's summation routes.
"""
from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np

MOD64 = 1 << 64

# C_k = prod_p (1 + g_k(p) / p**(k+1)), from the exact product over p <= 2000
# and the log-series tail over prime zeta values P(m), m <= 30, at 50 digits
# (mpmath); the same sum with p <= 5000 and m <= 34 agrees to 1e-48.
C_K = {
    2: "0.28674742843447873410789271278983845",
    3: "0.30710070302025899046139076204249197",
    4: "0.24625973348912037140369997614624411",
    5: "0.23820220350229579034273654725365301",
    6: "0.21768344631826571338345444321109935",
}
C_K_RADIUS = Fraction(1, 10**30)


def c_k_interval(k: int) -> tuple[Fraction, Fraction]:
    """A checked-in interval of width 2e-30 around the constant C_k."""
    mid = Fraction(C_K[k])
    return mid - C_K_RADIUS, mid + C_K_RADIUS


def seed_width_limit(k: int, prime_bound: int) -> float:
    """An upper bound on the enclosure width of the float product at prime_bound.

    The truncated product hi exceeds C_k by the omitted factors, at most a
    relative (k+1) / (P log P) (twice that, for slack); the lower end is
    hi * (1 - (k+1)/(P-1)) less two ulp steps per prime, and there are
    fewer than 1.3 P / log P primes below P.
    """
    log_p = math.log(prime_bound)
    hi = float(C_K[k]) * (1 + 2 * (k + 1) / (prime_bound * log_p))
    steps = 2 * 1.3 * prime_bound / log_p
    return hi * ((k + 1) / (prime_bound - 1) + 2 * steps * 2.0**-52)


def factor(n: int) -> list[tuple[int, int]]:
    """Prime factorization of a small n by trial division."""
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        p += 1
    if n > 1:
        out.append((n, 1))
    return out


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 3.3e24."""
    if n < 2:
        return False
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    for p in bases:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in bases:
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


def random_prime(rng: random.Random, lo: int, hi: int) -> int:
    """A prime drawn from [lo, hi): the first prime after a random start."""
    n = rng.randrange(lo, hi)
    while not is_prime(n):
        n += 1
    return n


def phi_k_prime(k: int, p: int) -> int:
    return (p - 1) * ((p - 1) ** k - (-1) ** k) // p


def phi_k(k: int, n: int) -> int:
    out = 1
    for p, e in factor(n):
        out *= p ** ((e - 1) * k) * phi_k_prime(k, p)
    return out


def euler_phi(n: int) -> int:
    return phi_k(1, n)


def jordan(k: int, n: int) -> int:
    out = 1
    for p, e in factor(n):
        out *= p ** ((e - 1) * k) * (p**k - 1)
    return out


def phi_k_nm(k: int, n: int, m: int) -> int:
    """phi_k(n, m) = phi(n)**k * prod_{p | m} phi_k(p) / (p - 1)**k, for m | n."""
    val = Fraction(euler_phi(n) ** k)
    for p, _ in factor(m):
        val *= Fraction(phi_k_prime(k, p), (p - 1) ** k)
    assert val.denominator == 1
    return int(val)


def squarefree_count(x: int) -> int:
    """Squarefree integers in [1, x]: sum over d <= sqrt(x) of mu(d) (x // d**2)."""
    root = math.isqrt(x)
    mu = [1] * (root + 1)
    is_comp = [False] * (root + 1)
    for p in range(2, root + 1):
        if not is_comp[p]:
            for m in range(2 * p, root + 1, p):
                is_comp[m] = True
            for m in range(p, root + 1, p):
                mu[m] = -mu[m]
            for m in range(p * p, root + 1, p * p):
                mu[m] = 0
    return sum(mu[d] * (x // (d * d)) for d in range(1, root + 1))


def distinct_quotients(x: int) -> list[int]:
    """The distinct values of x // d for 1 <= d <= x."""
    root = math.isqrt(x)
    small = {q for q in range(1, x // root + 1) if x // (x // q) == q}
    return sorted(small | {x // d for d in range(1, root + 1)})


def _primes(limit: int) -> np.ndarray:
    sieve = np.ones(limit + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    return np.flatnonzero(sieve)


def phi_k_prefix_mod64(k: int, xs: list[int]) -> list[int]:
    """sum_{n <= x} phi_k(n) modulo 2**64 for each x in xs.

    Builds phi_k(n) mod 2**64 for all n <= max(xs) multiplicatively: each
    multiple of p takes the factor phi_k(p), each multiple of p**e (e >= 2)
    one more p**k.  uint64 products and the running sum wrap mod 2**64.
    """
    top = max(xs)
    primes = _primes(top)
    factors = np.array([phi_k_prime(k, p) % MOD64 for p in primes.tolist()], dtype=np.uint64)
    f = np.ones(top + 1, dtype=np.uint64)
    f[0] = 0
    # primes above top // 64 have fewer than 64 multiples: one fancy-indexed
    # multiply per multiplier instead of one slice per prime
    split = int(np.searchsorted(primes, top // 64, side="right"))
    for p, c in zip(primes[:split].tolist(), factors[:split]):
        f[p::p] *= c
    big, big_factors = primes[split:], factors[split:]
    for m in range(1, 64):
        count = int(np.searchsorted(big, top // m, side="right"))
        if count == 0:
            break
        f[big[:count] * m] *= big_factors[:count]
    for p in primes[: int(np.searchsorted(primes, math.isqrt(top), side="right"))].tolist():
        step = np.uint64(pow(p, k, MOD64))
        q = p * p
        while q <= top:
            f[q::q] *= step
            q *= p
    prefix = np.cumsum(f, dtype=np.uint64)
    return [int(prefix[x]) for x in xs]
