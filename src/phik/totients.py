"""The k-dimensional totient phi_k, its two-parameter refinement, and g_k.

phi_k(n) counts tuples (a_1, ..., a_k), 1 <= a_i <= n, with
gcd(a_1 * ... * a_k, n) = 1 and gcd(a_1 + ... + a_k, n) = 1.

phi_k(n, m) relaxes the sum condition to gcd(a_1 + ... + a_k, m) = 1 for a
divisor m of n.  g_k is the multiplicative function with phi_k = id_k * g_k
(Dirichlet convolution); it is supported on squarefree numbers and drives
the partial-sum machinery in `summatory`.

Every oracle in phik counts from the definitions with one kernel,
`fold_counts`, which counts k-tuples by the value their entries fold to
without visiting the tuples; here, unit tuples by their sum mod M.
"""
from __future__ import annotations

import warnings
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import Callable, Iterable

from .core import (
    DEFAULT_ORACLE_BUDGET,
    MultiplicativeFunction,
    check_budget,
    divisors,
    euler_phi,
    eval_mf,
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
    """Pairs (r, c): c k-tuples of units mod n sum to r mod `modulus`, c > 0.

    Cached, so a sweep reading several quantities at one (k, n) counts once.
    """
    counts = fold_counts(units_mod(n), lambda a: a % modulus, lambda u, v: (u + v) % modulus, k)
    return tuple(sorted(counts.items()))


def _phi_k_prime_power(k: int, p: int, e: int = 1) -> int:
    # (p-1)**k == (-1)**k (mod p), so the division by p is exact.
    sign = -1 if k % 2 else 1
    q, r = divmod((p - 1) * ((p - 1) ** k - sign), p)
    assert r == 0
    return p ** ((e - 1) * k) * q


def phi_k_mf(k: int) -> MultiplicativeFunction:
    """phi_k as a registered multiplicative function."""
    k = positive_int(k, "tuple length k")
    return MultiplicativeFunction(f"phi_{k}", lambda p, e: _phi_k_prime_power(k, p, e))


def phi_k(k: int, n: int) -> int:
    """Closed form for phi_k(n).  Zero exactly when k and n are both even."""
    k = positive_int(k, "tuple length k")
    n = positive_int(n, "modulus n")
    if k == 1:
        return euler_phi(n)
    val = 1
    for p, e in factorize(n).factors:
        val *= _phi_k_prime_power(k, p, e)
        if val == 0:
            return 0
    return val


def phi_k_oracle(k: int, n: int, budget: int = DEFAULT_ORACLE_BUDGET) -> int:
    """Count phi_k(n) from the definition, priced at its n**k tuples.  Independent of phi_k."""
    k = positive_int(k, "tuple length k")
    n = positive_int(n, "modulus n")
    check_budget(n**k, budget, f"phi_{k}({n}) oracle")
    return sum(c for r, c in unit_sum_counts(k, n, n) if gcd(r, n) == 1)


def alternating_unit_sum(length: int, p: int) -> Fraction:
    """sum of (-1/(p-1))**j for j = 0 .. length-1, exactly."""
    return sum((Fraction(-1, p - 1) ** j for j in range(length)), Fraction(0))


def phi_k_nm(k: int, n: int, m: int) -> int:
    """Closed form for the two-parameter totient phi_k(n, m); requires m | n.

    phi_k(n, m) = phi(n)**k * prod over primes p | m of
    (1 - 1/(p-1) + 1/(p-1)**2 - ... +- 1/(p-1)**(k-1)).
    """
    k = positive_int(k, "tuple length k")
    n = positive_int(n, "modulus n")
    m = positive_divisor(m, n, "m")
    if k == 1:
        # the sum condition is implied by the product condition when m | n
        return euler_phi(n)
    val = Fraction(euler_phi(n)) ** k
    for p in factorize(m).primes():
        val *= alternating_unit_sum(k, p)
    assert val.denominator == 1
    return int(val)


def phi_k_nm_recursion(k: int, n: int, m: int) -> int:
    """phi_k(n, m) via phi_k(n, m) = phi(n) * sum_{d | m} mu(d)/phi(d) * phi_{k-1}(n, d).

    Independent of the closed form; bottoms out at phi_1(n, d) = phi(n).
    """
    k = positive_int(k, "tuple length k")
    n = positive_int(n, "modulus n")
    m = positive_divisor(m, n, "m")
    if k == 1:
        return euler_phi(n)
    total = Fraction(0)
    for d in divisors(m):
        mu_d = mobius(d)
        if mu_d:
            total += Fraction(mu_d, euler_phi(d)) * phi_k_nm_recursion(k - 1, n, d)
    total *= euler_phi(n)
    assert total.denominator == 1
    return int(total)


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
    return MultiplicativeFunction(
        f"g_{k}", lambda p, e: _g_k_prime(k, p) if e == 1 else 0
    )


def g_k(k: int, n: int) -> int:
    k = positive_int(k, "tuple length k")
    n = positive_int(n, "modulus n")
    return int(eval_mf(g_k_mf(k), n))
