"""The k-dimensional totient phi_k, its two-parameter refinement, and g_k.

phi_k(n) counts tuples (a_1, ..., a_k), 1 <= a_i <= n, with
gcd(a_1 * ... * a_k, n) = 1 and gcd(a_1 + ... + a_k, n) = 1.

phi_k(n, m) relaxes the sum condition to gcd(a_1 + ... + a_k, m) = 1 for a
divisor m of n.  g_k is the multiplicative function with phi_k = id_k * g_k
(Dirichlet convolution); it is supported on squarefree numbers and drives
the partial-sum machinery in `summatory`.

Every closed form is built in integers from phi_k(p) = (p-1)((p-1)**k -
(-1)**k)/p: phi_k(n, m) = (phi(n) / prod (p-1))**k * prod phi_k(p) over the
primes p | m, phi_k(n) = phi_k(n, n), and g_k(p) = phi_k(p) - p**k, each k-th power by `core.power`.

The oracles count from the definitions, never visiting tuples one by one:
unit tuples by their sum mod M in one big-integer power, folded after each
product (`unit_sum_counts`), other keys by squaring count tables (`fold_counts`).
`_divisor_levels` builds and prices the recursions of phi_k(n, m) and N_k.  k, n
and m pass the one argument gate, `core.tuple_args`.
"""
from __future__ import annotations

from collections import Counter
from functools import lru_cache
from math import gcd, prod
from typing import Callable, Iterable

from .core import (
    DEFAULT_ORACLE_BUDGET,
    MultiplicativeFunction,
    check_budget,
    check_word_budget,
    euler_phi,
    eval_mf,
    exact_div,
    factorize,
    mobius,
    power,
    tuple_args,
)


@lru_cache(maxsize=2048)
def units_mod(n: int) -> tuple[int, ...]:
    """The reduced residues 1 <= a <= n with gcd(a, n) = 1."""
    return tuple(a for a in range(1, n + 1) if gcd(a, n) == 1)


def _power(base, k: int, times: Callable):
    """base**k for an associative `times`: bits(k) - 1 squarings, popcount(k) - 1 products."""
    power = base
    for bit in bin(k)[3:]:  # from the left: square, and multiply by base at a 1 bit
        power = times(times(power, power), base) if bit == "1" else times(power, power)
    return power


def fold_counts(entries: Iterable, key: Callable, combine: Callable, k: int) -> Counter:
    """How many k-tuples of entries reach each value of combine(key(a_1), ..., key(a_k)).

    combine is associative and commutative: these are the key counts to the k-th `_power`.
    """
    def pair(left: Counter, right: Counter) -> Counter:
        counts: Counter = Counter()
        for u, cu in left.items():
            for v, cv in right.items():
                counts[combine(u, v)] += cu * cv
        return counts

    return _power(Counter(map(key, entries)), k, pair)


@lru_cache(maxsize=4096)
def unit_sum_counts(k: int, n: int, modulus: int) -> tuple[tuple[int, int], ...]:
    """Pairs (r, c): c k-tuples of units mod n sum to r mod `modulus`, c > 0.  Cached.

    Kronecker substitution: the unit counts by a % modulus (at most n + 1) are the
    width-byte digits of one integer, raised to the k-th power from the left with
    each product folded back at once (x**modulus = 1), so no operand passes `modulus`
    digits; a digit after the step to exponent j is at most phi(n)**j (one byte at phi(n) = 1).
    """
    units = units_mod(n)
    width = k * (len(units) - 1).bit_length() // 8 + 1  # 2**(8 width) > phi(n)**k, the digit sum
    hist = [0] * min(modulus, n + 1)
    for a in units:
        hist[a % modulus] += 1
    base = int.from_bytes(b"".join(c.to_bytes(width, "little") for c in hist), "little")
    shift = 8 * width * modulus

    def fold(v: int) -> int:  # v has under 2 modulus digits: one fold leaves under modulus
        high = v >> shift
        return v + high - (high << shift)

    power = _power(base, k, lambda u, v: fold(u * v))
    digits = power.to_bytes(width * (power.bit_length() // (8 * width) + 1), "little")
    return tuple((r, c) for r in range(len(digits) // width)
                 if (c := int.from_bytes(digits[r * width:(r + 1) * width], "little")))


def _phi_k_prime_power(k: int, p: int, e: int = 1) -> int:
    # (p-1)**k == (-1)**k (mod p), so the division by p is exact.
    sign = -1 if k % 2 else 1
    return power(p, (e - 1) * k) * exact_div((p - 1) * (power(p - 1, k) - sign), p)


def phi_k_mf(k: int) -> MultiplicativeFunction:
    """phi_k as a registered multiplicative function."""
    (k,) = tuple_args(k)
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
    k, n, m = tuple_args(k, n, m=m)
    if k % 2 == 0 and m % 2 == 0:
        return 0
    primes = factorize(m).primes()
    free = exact_div(euler_phi(n), prod(p - 1 for p in primes))
    return power(free, k) * prod(_phi_k_prime_power(k, p) for p in primes)


def _divisor_levels(k: int, n: int, primes: tuple[int, ...], first: Callable[[int], int],
                    what: str) -> int:
    """phi(rad) level_k(rad), rad = prod(primes), k >= 1; priced before any divisor is listed.

    level_1(s) = first(s), level_i(s) = phi(n)/phi(s) sum_{e | s} mu(e) level_{i-1}(e) (exact)
    over the squarefree s | rad, priced at 3**omega divisor pairs per level, on numbers of up
    to k bits(phi(n)) bits.  The divisor sums of a level take omega 2**(omega-1) subtractions.
    """
    phi_n = euler_phi(n)
    check_word_budget(k * 3 ** len(primes), k * phi_n.bit_length(),
                      f"{what} recursion over divisor steps")
    divs, phis = [1], [1]  # divs[b] is the product of the primes at the set bits of b
    for p in primes:
        divs += [d * p for d in divs]
        phis += [f * (p - 1) for f in phis]
    level = [first(s) for s in divs]
    for _ in range(k - 1):
        for bit in (1 << i for i in range(len(primes))):  # one prime at a time: the sum over e | s
            for b in range(bit, len(level)):
                if b & bit:
                    level[b] = level[b ^ bit] - level[b]
        level = [exact_div(phi_n * v, f) for v, f in zip(level, phis)]
    return phis[-1] * level[-1]


def phi_k_nm_recursion(k: int, n: int, m: int) -> int:
    """phi_k(n, m) via phi_k(n, m) = phi(n) * sum_{d | m} mu(d)/phi(d) * phi_{k-1}(n, d).

    Independent of the closed form; bottoms out at phi_1(n, d) = phi(n).  The
    levels phi_i(n, t) / phi(t) over the squarefree t | m are integers, as p - 1
    divides phi_i(p), and are built by `_divisor_levels`.
    """
    k, n, m = tuple_args(k, n, m=m)
    if k == 1:
        return euler_phi(n)
    phi_n = euler_phi(n)
    return _divisor_levels(k, n, factorize(m).primes(), lambda t: exact_div(phi_n, euler_phi(t)),
                           f"phi_{k}(n, m={m})")


def phi_k_nm_oracle(k: int, n: int, m: int, budget: int = DEFAULT_ORACLE_BUDGET) -> int:
    """Count tuples with product coprime to n and sum coprime to m | n; priced at n**k."""
    k, n, m = tuple_args(k, n, m=m)
    check_budget((n, k), budget, f"phi_{k}({n}, m={m}) oracle")
    return sum(c for r, c in unit_sum_counts(k, n, m) if gcd(r, m) == 1)


def _g_k_prime(k: int, p: int) -> int:
    # g_k(p) = phi_k(p) - p**k; lies in (-(k+1) p**(k-1), 0) for k >= 2.
    return _phi_k_prime_power(k, p, 1) - power(p, k)


def g_k_mf(k: int) -> MultiplicativeFunction:
    """Convolution inverse factor: phi_k = id_k * g_k.  Vanishes off squarefree n."""
    (k,) = tuple_args(k)
    return MultiplicativeFunction(f"g_{k}", lambda p, e: _g_k_prime(k, p) if e == 1 else 0)


def g_k(k: int, n: int) -> int:
    """g_k(n), 0 off squarefree n without building any factor (a factor p**k may be refused)."""
    k, n = tuple_args(k, n)
    return eval_mf(g_k_mf(k), n) if mobius(n) else 0
