"""The k-dimensional totient phi_k, its two-parameter refinement, and g_k.

phi_k(n) counts tuples (a_1, ..., a_k), 1 <= a_i <= n, with
gcd(a_1 * ... * a_k, n) = 1 and gcd(a_1 + ... + a_k, n) = 1.

phi_k(n, m) relaxes the sum condition to gcd(a_1 + ... + a_k, m) = 1 for a
divisor m of n.  g_k is the multiplicative function with phi_k = id_k * g_k
(Dirichlet convolution); it is supported on squarefree numbers and drives
the partial-sum machinery in `summatory`.

Every closed form is built in integers from phi_k(p) = (p-1)((p-1)**k -
(-1)**k)/p: phi_k(n, m) = (phi(n) / prod (p-1))**k * prod phi_k(p) over the
primes p | m, phi_k(n) = phi_k(n, n), and g_k(p) = phi_k(p) - p**k.

The oracles count from the definitions, never visiting tuples one by one:
unit tuples by their sum mod M in one big-integer power (`unit_sum_counts`),
other keys by k - 1 pairing steps (`fold_counts`).
"""
from __future__ import annotations

import warnings
from collections import Counter
from functools import lru_cache
from math import gcd, prod
from typing import Callable, Iterable

from .core import (
    DEFAULT_ORACLE_BUDGET,
    MultiplicativeFunction,
    check_budget,
    check_word_budget,
    divisors,
    euler_phi,
    eval_mf,
    exact_div,
    factorize,
    mobius,
    positive_divisor,
    positive_int,
)


@lru_cache(maxsize=2048)
def units_mod(n: int) -> tuple[int, ...]:
    """The reduced residues 1 <= a <= n with gcd(a, n) = 1."""
    return tuple(a for a in range(1, n + 1) if gcd(a, n) == 1)


def fold_counts(entries: Iterable, key: Callable, combine: Callable, k: int) -> Counter:
    """How many k-tuples of entries reach each value of combine(key(a_1), ..., key(a_k)).

    combine is associative and commutative.  Each of the k - 1 steps pairs the
    distinct values reached so far with the distinct keys, weighted by counts.
    """
    keys = Counter(map(key, entries))
    counts = keys
    for _ in range(k - 1):
        step: Counter = Counter()
        for u, cu in counts.items():
            for v, cv in keys.items():
                step[combine(u, v)] += cu * cv
        counts = step
    return counts


@lru_cache(maxsize=4096)
def unit_sum_counts(k: int, n: int, modulus: int) -> tuple[tuple[int, int], ...]:
    """Pairs (r, c): c k-tuples of units mod n sum to r mod `modulus`, c > 0.  Cached.

    Kronecker substitution: the unit counts by a % modulus (at most n + 1) are the
    width-byte digits of one integer, whose k-th power holds their k-fold convolution.
    """
    units = units_mod(n)
    width = k * len(units).bit_length() // 8 + 1  # 2**(8 width) > phi(n)**k, the digit sum
    hist = [0] * min(modulus, n + 1)
    for a in units:
        hist[a % modulus] += 1
    power = int.from_bytes(b"".join(c.to_bytes(width, "little") for c in hist), "little") ** k
    shift = 8 * width * modulus
    while high := power >> shift:  # x**modulus = 1: fold back, no digit carries
        power += high - (high << shift)
    digits = power.to_bytes(width * (power.bit_length() // (8 * width) + 1), "little")
    return tuple((r, c) for r in range(len(digits) // width)
                 if (c := int.from_bytes(digits[r * width:(r + 1) * width], "little")))


def _phi_k_prime_power(k: int, p: int, e: int = 1) -> int:
    # (p-1)**k == (-1)**k (mod p), so the division by p is exact.
    sign = -1 if k % 2 else 1
    return p ** ((e - 1) * k) * exact_div((p - 1) * ((p - 1) ** k - sign), p)


def phi_k_mf(k: int) -> MultiplicativeFunction:
    """phi_k as a registered multiplicative function."""
    k = positive_int(k, "tuple length k")
    return MultiplicativeFunction(f"phi_{k}", lambda p, e: _phi_k_prime_power(k, p, e))


def phi_k(k: int, n: int) -> int:
    """Closed form for phi_k(n) = phi_k(n, n).  Zero exactly when k and n are both even."""
    return phi_k_nm(k, n, n)


def phi_k_oracle(k: int, n: int, budget: int = DEFAULT_ORACLE_BUDGET) -> int:
    """Count phi_k(n) = phi_k(n, n) from the definition, priced at n**k.  Independent of phi_k."""
    return phi_k_nm_oracle(k, n, n, budget)


def phi_k_nm(k: int, n: int, m: int) -> int:
    """Closed form for the two-parameter totient phi_k(n, m); requires m | n.

    phi_k(n, m) = (phi(n) / prod (p-1))**k * prod phi_k(p), both products over
    the primes p | m; prod (p-1) divides phi(n), and phi_1(p) = p - 1.  Zero
    exactly when k and m are both even, as phi_k(2) = 0 for even k.
    """
    k = positive_int(k, "tuple length k")
    n = positive_int(n, "modulus n")
    m = positive_divisor(m, n, "m")
    if k % 2 == 0 and m % 2 == 0:
        return 0
    primes = factorize(m).primes()
    free = exact_div(euler_phi(n), prod(p - 1 for p in primes))
    return free**k * prod(_phi_k_prime_power(k, p) for p in primes)


def phi_k_nm_recursion(k: int, n: int, m: int) -> int:
    """phi_k(n, m) via phi_k(n, m) = phi(n) * sum_{d | m} mu(d)/phi(d) * phi_{k-1}(n, d).

    Independent of the closed form; bottoms out at phi_1(n, d) = phi(n).  Levels
    are built upwards over the squarefree d | m, priced by `core.check_word_budget`;
    each phi_{i-1}(n, d) / phi(d) is an integer, as p - 1 divides phi_{i-1}(p).
    """
    k = positive_int(k, "tuple length k")
    n = positive_int(n, "modulus n")
    m = positive_divisor(m, n, "m")
    if k == 1:
        return euler_phi(n)
    primes = factorize(m).primes()
    phi_n = euler_phi(n)
    check_word_budget(k * 3 ** len(primes), k * phi_n.bit_length(),
                      f"phi_{k}(n, m={m}) recursion over divisor steps")
    rad = prod(primes)
    level = dict.fromkeys(divisors(rad), phi_n)  # phi_1(n, t) at each squarefree t | m
    for _ in range(k - 1):
        level = {t: phi_n * sum(mobius(d) * exact_div(level[d], euler_phi(d)) for d in divisors(t))
                 for t in level}
    return level[rad]


def phi_k_nm_oracle(k: int, n: int, m: int, budget: int = DEFAULT_ORACLE_BUDGET) -> int:
    """Count tuples with product coprime to n and sum coprime to m; priced at n**k.

    m need not divide n here; that regime is experimental (no closed form is
    provided for it) and a warning is emitted.
    """
    k = positive_int(k, "tuple length k")
    n = positive_int(n, "modulus n")
    m = positive_int(m, "m")
    if n % m != 0:
        warnings.warn(
            f"m={m} does not divide n={n}: experimental regime, "
            f"only this brute-force count is available",
            stacklevel=2,
        )
    check_budget(n**k, budget, f"phi_{k}({n}, m={m}) oracle")
    return sum(c for r, c in unit_sum_counts(k, n, m) if gcd(r, m) == 1)


def _g_k_prime(k: int, p: int) -> int:
    # g_k(p) = phi_k(p) - p**k; lies in (-(k+1) p**(k-1), 0) for k >= 2.
    return _phi_k_prime_power(k, p, 1) - p**k


def g_k_mf(k: int) -> MultiplicativeFunction:
    """Convolution inverse factor: phi_k = id_k * g_k.  Vanishes off squarefree n."""
    k = positive_int(k, "tuple length k")
    return MultiplicativeFunction(f"g_{k}", lambda p, e: _g_k_prime(k, p) if e == 1 else 0)


def g_k(k: int, n: int) -> int:
    return eval_mf(g_k_mf(k), positive_int(n, "modulus n"))
