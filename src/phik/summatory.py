"""Exact partial sums of phi_k and a rigorous enclosure of its average-order constant.

Two independent summation routes must agree exactly: per-n evaluation of
phi_k(n) (`sum_phi_k_direct`) and the Dirichlet convolution phi_k = id_k * g_k
summed against exact power sums S_k (`sum_phi_k_convolution`).  Both carry their
values in the rows of `phik.residues`: modulo 2**64 in a wrapping int64 word row,
and modulo just enough of the largest primes below 2**31 that 2**64 times their
product exceeds 2**((k+1) bits(x)), more than the bound x**(k+1) on every such
sum; one CRT rebuilds each exact total.  The direct route walks the odd m <= x
over a smallest-prime-factor sieve of the odd numbers, and adds the powers of 2
through phi_k(2**e), in one driver (`_direct_sums`) for a sum and for an error table.
The convolution route sums g_k by the min_25 sieve over the quotient set {x // i},
from the primes up to sqrt(x) and Pg(v) = sum_{p <= v} g_k(p).  On those rows it
builds no sieve: Pg comes from Lucy's sieve over the power sums S_j, j <= k, so the
two share the rows, their CRT and `_power_sum`, and nothing else.  Where the rows
would number more than `residues.MAX_MODULI`, both carry one exact object row
instead, priced once (`_priced_rows`): the direct route walks the same sieve, and
the convolution route sums Pg off one table of g_k at 2 and that sieve's primes,
where Lucy would need every S_j.  The
coefficients of S_k come from its values at m = 1 ... k+2, by the Newton
interpolation that also gives `residues.Rows.polynomial` its coefficients.

The constant C_k = prod over primes of (1 + g_k(p)/p**(k+1)) is enclosed by one
pass in Python floats over p <= P, a list comprehension per step, streamed from a
byte sieve of the odd numbers (`_primes`, which also serves the sums) without numpy,
widened by a rounding bound proven in advance; the truncated product overestimates
(every omitted factor is below 1), and the tail is bounded below via
sum_{p > P} 1/p**2 <= 1/(P - 1).  Each exact bound is a ratio of ints, rounded outward
(`_float_below`), so no `Fraction` is built.  phi_k and g_k at primes and at powers of 2 come
from `core`, so no command here imports `totients`.
The enclosure (`Enclosure`) and the error rows (`ErrorTable`) print themselves: their str is
what `phik constant` and `phik error-table` print, and their as_dict() the JSON.
"""
from __future__ import annotations

import math
from functools import lru_cache, partial
from itertools import accumulate, chain, compress, islice, takewhile
from math import isqrt
from typing import TYPE_CHECKING, Callable, Iterator, NamedTuple

from .core import (
    DEFAULT_PRIME_BOUND,
    DEFAULT_SIEVE_LIMIT,
    BudgetExceededError,
    _g_k_prime,
    _phi_k_prime_power,
    cap_workers,
    check_word_budget,
    exact_div,
    parallel_map,
    positive_int,
    tuple_args,
    words_of,
)

if TYPE_CHECKING:
    import numpy as np

    from .residues import Rows

# Primes per chunk of the float product that encloses C_k, which bounds its memory.  The
# product's rounding, and so the printed enclosure, depends on the chunking: this stays fixed
# whatever block size the walks use (`residues.Rows.block`).
PRODUCT_CHUNK = 1 << 14

# Numbers per worker below which the direct sum starts no pool.  A 2-way split saves at most
# half of the walk, which visits the odd numbers only: at x = 4 * 10**6, k = 2 it takes about
# 0.1 s in process, while starting the pool costs 0.05-0.1 s as a process.  As processes
# (2 vCPUs, Python 3.11), `--workers 2` lost to `--workers 1` up to x = 8 * 10**6 (0.41 s
# against 0.36 s) and, while the host's other CPU was busy, up to 1.6 * 10**7 (0.69 s against
# 0.61 s); with it free, it won from 8 * 10**6 on (0.32 s against 0.41 s).  At 2**22, a 2-way
# pool starts at x = 8,388,608.
POOL_FLOOR = 1 << 22


class PartialSum(int):
    """Exact value of sum_{n <= x} phi_k(n), a plain int to compare, hash and print, whatever
    route produced it (`core.ROUTES` names them)."""

    @property
    def value(self) -> int:
        return int(self)


class Enclosure(NamedTuple):
    """Directed-rounding interval [lo, hi] certified to contain the constant; str is the line
    `phik constant` prints."""

    k: int
    prime_bound: int
    lo: float
    hi: float

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def midpoint(self) -> float:
        return (self.lo + self.hi) / 2

    def as_dict(self) -> dict:
        return {**self._asdict(), "width": self.width}

    def __str__(self) -> str:
        return (f"C_{self.k} in [{self.lo!r}, {self.hi!r}] width={self.width!r} "
                f"(primes up to {self.prime_bound})")


def _check_sieve_budget(n: int, limit: int, what: str) -> None:
    if n > limit:
        raise BudgetExceededError(f"{what} {n} is above the sieve limit of {limit}", "sieve_limit")


@lru_cache(maxsize=1)
def _spf_sieve(limit: int) -> tuple[np.ndarray, np.ndarray]:
    """Smallest prime factors of the odd numbers up to limit, as indices into a prime table.

    Returns (primes, spf): primes[1:] are the odd primes <= limit in order and primes[0] = 1;
    spf holds one int32 per odd n, primes[spf[n >> 1]] is the smallest prime factor of an odd
    n >= 3, and spf[0] = 0, for n = 1.
    """
    import numpy as np

    spf = np.zeros((limit + 1) // 2, dtype=np.int32)
    for found, p in reversed(list(enumerate(primes_up_to(isqrt(limit))[1:], 1))):
        spf[p * p >> 1 :: p] = found  # p**2, p**2 + 2p, ...: the smallest p writes last
    untouched = np.flatnonzero(spf == 0)  # 1 and every odd prime
    spf[untouched] = np.arange(untouched.size)
    return 2 * untouched + 1, spf


def _primes(limit: int) -> Iterator[int]:
    """The primes <= limit in ascending order, unchecked, from one byte sieve of the odd numbers."""
    odd = bytearray([1]) * ((limit + 1) // 2)  # odd[i] for 2i + 1
    if odd:
        odd[0] = 0  # 1 is no prime
    for p in range(3, isqrt(limit) + 1, 2):
        if odd[p >> 1]:  # cross out p**2, p**2 + 2p, ...
            odd[p * p >> 1 :: p] = bytes(len(range(p * p >> 1, len(odd), p)))
    return chain([2] if limit >= 2 else [], compress(range(1, limit + 1, 2), odd))


def primes_up_to(limit: int) -> list[int]:
    """All primes <= limit, an integer >= 0, as plain Python ints."""
    return list(_primes(positive_int(limit, "prime limit", least=0)))


def _priced_rows(k: int, x: int) -> Rows:
    """`Rows(k, x)`; an exact row is priced first, at x numbers of (k+1) bits(x - 1) bits."""
    from .residues import Rows

    if not (rows := Rows(k, x)).moduli:
        check_word_budget(x * words_of((k + 1) * (x - 1).bit_length()),
                          f"the exact sums to x={x} at k={k}")
    return rows


@lru_cache(maxsize=1)
def _prime_values(k: int, limit: int) -> np.ndarray:
    """phi_k(p) at the odd primes p of the sieve up to limit, in `_priced_rows(k, limit)` rows.

    phi_k(p) is an integer polynomial of degree <= k in p (`Rows.polynomial`); entry 0, for
    primes[0] = 1, holds phi_k(1) = 1.  The rows are priced before the sieve is built.
    """
    rows = _priced_rows(k, limit)
    table = rows.polynomial(partial(_phi_k_prime_power, k), k, _spf_sieve(limit)[0])
    table[:, 0] = 1
    return table


def _two_adic(k: int, ys: list[int], odd_sums: Callable[[list[int]], list[int]]) -> list[int]:
    """[F(y) for y in ys], F(y) = sum_{n <= y} phi_k(n), from sums over odd n only.

    Each n is 2**e m with m odd, and phi_k is multiplicative, so F(y) = sum over 2**e <= y of
    phi_k(2**e) F_odd(y >> e), F_odd(z) the sum over odd m <= z; at even k only e = 0 is left,
    as phi_k(2**e) = 0 from e = 1 on.  odd_sums gives F_odd at each of the cuts z, ascending, in
    one walk; the terms are combined in exact ints.
    """
    terms = [[(1, y), *takewhile(lambda term: term[0], ((_phi_k_prime_power(k, 2, e), y >> e)
                                                       for e in range(1, y.bit_length())))]
             for y in ys]
    cuts = sorted({z for row in terms for _, z in row})
    sums = dict(zip(cuts, odd_sums(cuts)))
    return [sum(c * sums[z] for c, z in row) for row in terms]


def _direct_range_sum(args: tuple) -> list[int]:
    """The sums of phi_k(m) over the odd m in lo..hi up to each cut, ascending (worker-safe).

    phi_k(m) is built in `Rows(k, x)` rows by `residues.blocks`, from phi_k(p) at each odd
    prime and p**k for each repeated one, over the sieve up to x, and each cut's sum is
    rebuilt into the exact total by one CRT.  Memory is the sieve and the prime table up to x
    plus a few blocks, whatever the range.
    """
    import numpy as np

    from .residues import Rows, blocks

    k, lo, hi, cuts, x = args
    rows, at_prime, sieve = Rows(k, x), _prime_values(k, x), _spf_sieve(x)
    # a repeated prime p is at most sqrt(x), and its index in the table at most (p - 1)/2
    again = rows.of([p**k for p in sieve[0][: isqrt(x) // 2 + 1].tolist()])
    total, sums = rows.of([0]), []
    for n, value in blocks(lo, min(hi, cuts[-1]), sieve, rows, at_prime, again):
        while len(sums) < len(cuts) and cuts[len(sums)] < n[-1]:
            head = value[:, : np.searchsorted(n, cuts[len(sums)], side="right")].sum(axis=1)
            sums.append(rows.exact(rows.reduce(total + head[:, None])))
        total += value.sum(axis=1, keepdims=True)
        rows.reduce(total)
        del n, value  # before the next block is built
    return sums + [rows.exact(total)] * (len(cuts) - len(sums))


def _direct_sums(k: int, xs: list[int], workers: int = 1) -> list[int]:
    """[sum_{n <= x} phi_k(n) for x in xs], xs ascending, from one walk to xs[-1] (`_two_adic`).

    The walk takes the odd m (`_direct_range_sum`) in one range per worker of `core.parallel_map`,
    each of at least POOL_FLOOR numbers, else in process, and adds each cut's range sums in range
    order, so no sum depends on the worker count.  The prime table and the sieve are built (an
    exact row priced first) before any power of 2, so that forked workers inherit them.
    """
    x = xs[-1]
    odd = (x + 1) // 2
    workers = cap_workers(workers, x // POOL_FLOOR)
    _prime_values(k, x)

    def odd_sums(cuts: list[int]) -> list[int]:
        ranges = [(k, 2 * (odd * i // workers) + 1, 2 * (odd * (i + 1) // workers) - 1, cuts, x)
                  for i in range(workers)]
        return [sum(pieces) for pieces in zip(*parallel_map(_direct_range_sum, ranges))]

    return _two_adic(k, xs, odd_sums)


def sum_phi_k_direct(k: int, x: int, sieve_limit: int = DEFAULT_SIEVE_LIMIT,
                     workers: int = 1) -> PartialSum:
    """Exact sum of phi_k(n) for n <= x, from phi_k(m) at every odd m <= x (`_direct_sums`)."""
    k, x = _sum_checks(k, x, sieve_limit)
    return PartialSum(_direct_sums(k, [x], workers)[0])


def sum_phi_k_convolution(k: int, x: int, sieve_limit: int = DEFAULT_SIEVE_LIMIT,
                          workers: int = 1) -> PartialSum:
    """Exact sum of phi_k(n) for n <= x via sum_{d <= x} g_k(d) * S_k(x // d).

    g_k(d) is the product of g_k(p) = phi_k(p) - p**k over the primes of a
    squarefree d, and 0 otherwise.  The sum is taken over the quotient set
    (`_quotient_convolution`) on every carrier of `residues.Rows`, with no sieve on int64
    rows.  It runs in process: workers is checked, first, as the direct route checks it.
    """
    cap_workers(workers, 1)
    k, x = _sum_checks(k, x, sieve_limit)
    if x > k + 1:  # S_k(x), for d = 1, needs the polynomial: priced before anything is built
        _faulhaber_coeffs(k)
    return PartialSum(_quotient_convolution(k, x, _priced_rows(k, x)))


def _quotient_convolution(k: int, x: int, rows: Rows) -> int:
    """sum_{d <= x} g_k(d) S_k(x // d) in rows, from G(v) = sum_{d <= v} g_k(d) on quotients.

    Over the quotient set Q = {x // i} in ascending order (`_quotient_set`), the sum is
    sum over v in Q of (G(v) - G(v')) S_k(x // v), with v' the element before v (G(0) = 0):
    x // d is the same for every d in (v', v].  G is built in three steps, each a vector
    update over a suffix of Q per prime p <= sqrt(x) (`_quotient_steps`), about x**(3/4)
    updates in all:

    - Lucy's sieve: from S_j(v) - 1 = sum_{2 <= n <= v} n**j, each prime p in ascending
      order takes off the n with smallest prime factor p, for every v >= p**2:
      P_j(v) -= p**j (P_j(v // p) - P_j(p - 1)).  It leaves sum_{p <= v} p**j.
    - The monomial coefficients c_j of g_k(p) (`residues.monomials`) combine those
      into Pg(v) = sum_{p <= v} g_k(p).
    - min_25: each prime p in descending order adds the squarefree d with smallest
      prime factor p, U(v) += g_k(p) (U(v // p) - Pg(p)), from U = Pg; then G = 1 + U.

    g_k is evaluated once, at the primes up to sqrt(x), whose head min_25 reads, or on the exact
    row (`_priced_rows`) up to x: 2, then the direct route's sieve.  Only Pg depends on the
    carrier.  On the exact row, where Lucy would need every S_j, j <= k, Pg sums that table between
    consecutive v, never as one running sum, x long.  On int64 rows, memory is
    O((k + 1) rows sqrt(x)) int64s, and the only primes are those up to sqrt(x).
    """
    import numpy as np

    from .residues import monomials

    v = _quotient_set(x)
    if rows.moduli:
        primes = np.array(list(_primes(isqrt(x))), dtype=np.int64)
    else:  # no prime at x = 1
        primes = np.append(2, _spf_sieve(x)[0][1:])[: x - 1]
    g_at = rows.polynomial(partial(_g_k_prime, k), k, primes)
    if not rows.moduli:
        ends = np.searchsorted(primes, v, side="right").tolist()  # the primes <= each v
        sums = accumulate(g_at[0, a:b].sum() for a, b in zip([0, *ends], ends))
        prime_sums, root = rows.of(list(sums)), ends[isqrt(x) - 1]  # v[j] = j + 1 up to sqrt(x)
        primes, g_at = primes[:root], g_at[:, :root]
        low = list(accumulate(i**k for i in range(1, min(x, k + 1) + 1)))  # S_k(m), m <= k + 1
        s_k = rows.of([low[m - 1] if m <= k + 1 else _power_sum(k, m) for m in v.tolist()])
    else:
        power_sums = _power_sum_rows(k, x, v, rows)  # [j] holds the rows of S_j(v)
        coeffs = monomials(partial(_g_k_prime, k), k)
        powers = [j for j, c in enumerate(coeffs) if c]
        prime_powers = _power_rows(primes, max(powers), rows)[powers]
        sums = power_sums[powers] - 1
        for i, (p, start, half) in enumerate(_quotient_steps(x, v, primes)):
            step = sums[..., half]
            step -= sums[..., p - 2 : p - 1]  # at v = p - 1
            step *= prime_powers[..., i : i + 1]
            sums[..., start:] -= step
            rows.reduce(sums[..., start:])
        prime_sums = np.zeros_like(power_sums[0])
        for c, prime_sum in zip(rows.of([coeffs[j] for j in powers]).T, sums):
            prime_sums += c[:, None] * prime_sum
            rows.reduce(prime_sums)
        s_k = power_sums[k]
    prefix = prime_sums.copy()
    descending = zip(g_at.T[::-1, :, None], _quotient_steps(x, v, primes[::-1]))
    for g, (p, start, half) in descending:
        prefix[:, start:] += g * (prefix[:, half] - prime_sums[:, p - 1 : p])  # at v = p
        rows.reduce(prefix[:, start:])
    runs = np.diff(prefix, axis=1, prepend=-1)  # G(v) - G(v'), with G = 1 + prefix and G(0) = 0
    total = rows.reduce(runs * s_k[:, ::-1]).sum(axis=1, keepdims=True)
    return rows.exact(rows.reduce(total))


def _quotient_set(x: int) -> np.ndarray:
    """{x // i : 1 <= i <= x} in ascending order: 1 ... r for r = isqrt(x), then each x // i > r.

    The element j is v = j + 1 for v <= r, and otherwise the one with x // v = size - j;
    reversed, the set is x // v for each v in order.
    """
    import numpy as np

    r = isqrt(x)
    return np.concatenate([np.arange(1, r + 1), x // np.arange(r - (x // r == r), 0, -1)])


def _quotient_steps(x: int, v: np.ndarray, primes: np.ndarray):
    """Yield (p, start, half) for each p of primes (each <= sqrt(x)), in the order given.

    v[start:] are the v >= p**2 of the quotient set v, and v[half] = v[start:] // p.
    """
    import numpy as np

    r = isqrt(x)
    for p in primes.tolist():
        start = p * p - 1 if p * p <= r else int(np.searchsorted(v, p * p))
        q = v[start:] // p
        yield p, start, np.where(q <= r, q - 1, v.size - x // q)


def _power_sum_rows(k: int, x: int, v: np.ndarray, rows: Rows) -> np.ndarray:
    """Rows of S_j(v) for j = 0 ... k at each v of the quotient set, shape (k+1, rows, v.size).

    Up to r = isqrt(x), v is 1 ... r, and each S_j is one cumulative sum of the rows of
    n**j.  Above, D S_j(v) is the integer polynomial of `_faulhaber_coeffs`, by Horner's rule:
    exactly in the word row, then divided by D, and modulo each prime row, times D's inverse
    there (D has no prime factor above j + 2).  While x <= j + 1, each S_j(v) is a plain sum.
    """
    import numpy as np

    from .residues import WORD

    r = isqrt(x)
    table = np.empty((k + 1, len(rows.moduli), v.size), dtype=np.int64)
    table[..., :r] = rows.reduce(np.cumsum(_power_rows(np.arange(1, r + 1), k, rows), axis=-1))
    large, mod = v[r:], rows.mod
    exact, at = large.astype(object), large % mod
    for j in range(k + 1):
        if x <= j + 1:
            table[j, :, r:] = rows.of([_power_sum(j, m) for m in large.tolist()])
            continue
        den, coeffs = _faulhaber_coeffs(j)
        word, prime = 0, 0
        for a, c in zip(coeffs, rows.of(coeffs)[1:].T):
            word = word * exact + a
            prime = (prime * at + c[:, None]) % mod
        table[j, 0, r:] = (word * exact // den + WORD // 2) % WORD - WORD // 2
        inverse = np.array([pow(den, -1, q) for q in rows.moduli[1:]], dtype=np.int64)[:, None]
        table[j, 1:, r:] = prime * at % mod * inverse % mod
    return table


def _power_rows(t: np.ndarray, top: int, rows: Rows) -> np.ndarray:
    """Rows of t**j for j = 0 ... top at each entry of t, shape (top+1, rows, t.size)."""
    import numpy as np

    at = np.vstack([t, t % rows.mod])
    table = np.empty((top + 1, *at.shape), dtype=np.int64)
    table[0] = 1
    for j in range(1, top + 1):
        table[j] = rows.reduce(table[j - 1] * at)
    return table


def _sum_checks(k: int, x: int, sieve_limit: int) -> tuple[int, int]:
    """Check k and x, and refuse a cutoff over the sieve limit before a sum starts."""
    (k,) = tuple_args(k)
    x = positive_int(x, "cutoff x")
    _check_sieve_budget(x, sieve_limit, "cutoff x")
    return k, x


# -- exact power sums -------------------------------------------------------


@lru_cache(maxsize=None)
def _faulhaber_coeffs(k: int) -> tuple[int, tuple[int, ...]]:
    """(D, a) with D * S_k(m) = a[0] m**(k+1) + a[1] m**k + ... + a[k] m, for the least D >= 1.

    S_k is interpolated at m = 1 ... k+2 (`residues.scaled_monomials`), and its
    (k+1)!-scaled coefficients are divided by their gcd with (k+1)!.  The build is priced
    at k**2/8 steps on numbers of up to k bits(k) bits (the price of the Bernoulli numbers
    B_0 ... B_k it replaced, so the same k are refused).
    """
    check_word_budget(k * k // 8 * words_of(k * k.bit_length()), f"the power-sum polynomial S_{k}")
    from .residues import scaled_monomials

    scaled, scale = scaled_monomials(list(accumulate(i**k for i in range(1, k + 3))))
    den = math.gcd(scale, *scaled)
    return scale // den, tuple(c // den for c in reversed(scaled[1:]))  # S_k(0) = 0


def faulhaber_sum(k: int, m: int) -> int:
    """Exact 1**k + 2**k + ... + m**k.

    Up to m = k + 1 the powers are added; above, the interpolated polynomial
    (`_faulhaber_coeffs`) is evaluated in integers over one common denominator.
    """
    k = positive_int(k, "exponent k", least=0)
    m = positive_int(m, "upper limit m", least=0)
    return _power_sum(k, m)


def _power_sum(k: int, m: int) -> int:
    """`faulhaber_sum` for Python ints k, m >= 0 already checked."""
    if m <= k + 1:
        return sum(i**k for i in range(1, m + 1))
    den, coeffs = _faulhaber_coeffs(k)
    acc = 0
    for a in coeffs:
        acc = acc * m + a
    return exact_div(acc * m, den)


# -- the average-order constant ---------------------------------------------


def _float_below(num: int, den: int) -> float:
    """The largest float <= num/den, for den > 0: an int true division rounds correctly, and
    a float a/b is compared with num/den exactly, as a*den against num*b."""
    x = num / den
    a, b = x.as_integer_ratio()
    return x if a * den <= num * b else math.nextafter(x, -math.inf)


def _float_above(num: int, den: int) -> float:
    """The least float >= num/den, for den > 0, as `_float_below`."""
    x = num / den
    a, b = x.as_integer_ratio()
    return x if a * den >= num * b else math.nextafter(x, math.inf)


def _power(x: list[float], k: int) -> list[float]:
    """x**k elementwise by repeated squaring, with correctly rounded products only."""
    if k == 1:
        return x
    half = _power([v * v for v in x], k // 2)
    return [h * v for h, v in zip(half, x)] if k % 2 else half


def _factors(k: int, t: list[float]) -> list[float]:
    """r_p = 1 + g_k(p)/p**(k+1) = 1 - t*v, v = 1 - w*(w**k - (-t)**k), at t = 1/p, w = 1 - t.

    With u = 2**-53 and x' the computed x, all values lie in [0, 1] (for odd k, w**k + t**k <=
    w + t/2 <= 1): a rounding errs by <= u/2, underflow included, or u*z at a normal z, and
    |a'b' - ab| <= |a' - a| + |b' - b|.  So t errs by u*t, w by e_w = u*t + u/2, v by (k+1)*e_w +
    k*u*t + (2k+1)*u/2, t*v by u*t + t*e_v + u*t*(1+u) + 2**-1075, r_p by <= (3k+5)*u*t + u/2.
    """
    w = [1.0 - v for v in t]
    a, b = _power(w, k), _power(t, k)
    if k % 2:  # a - (-b) is a + b, exactly
        return [1.0 - x * (1.0 - y * (p + q)) for x, y, p, q in zip(t, w, a, b)]
    return [1.0 - x * (1.0 - y * (p - q)) for x, y, p, q in zip(t, w, a, b)]


def _truncated_product(k: int, prime_bound: int) -> tuple[float, float]:
    """Floats lo <= prod_{p <= P} r_p <= hi, for P = prime_bound and N primes.

    As 1/r_p <= 1 + 2t, r'_p = r_p*(1 + e_p), |e_p| <= (6k+11)*u*t + u/2.  A product of N floats
    errs by a factor 1 + theta, |theta| <= gamma = (N-1)u/(1-(N-1)u), in any order (Higham,
    Accuracy and Stability of Numerical Algorithms, sec. 3.1; prod (1 - 1/p) >= 1/P: no underflow).
    With sum t <= ln P < 0.7*bits(P), slack = (6k+11)*u*0.7*bits(P) + N*u/2 + gamma: the product
    is in [prod'*(1 - slack), prod'/(1 - slack)], or in [0, 1] if slack >= 1 (k near 10**14),
    known before any prime is sieved when the first term alone reaches 1.  As every r_p < 1, so
    is the product, and hi is at most 1.
    """
    num, den = (6 * k + 11) * 7 * prime_bound.bit_length(), 10 * 2**53  # slack = num/den
    if num >= den:
        return 0.0, 1.0
    primes, product, n = _primes(prime_bound), 1.0, 0
    while chunk := list(islice(primes, PRODUCT_CHUNK)):  # the primes are never all listed
        product *= math.prod(_factors(k, [1.0 / p for p in chunk]))
        n += len(chunk)
    m = 2**53 - (n - 1)  # slack += n/2**54 + (n-1)/m, over the denominator 10 * 2**54 * m
    num, den = (2 * num + 10 * n) * m + 10 * 2**54 * (n - 1), 10 * 2**54 * m
    lo = max(0.0, math.nextafter(product * _float_below(den - num, den), -math.inf))
    hi = math.nextafter(product * _float_above(den, den - num), math.inf) if num < den else 1.0
    return lo, min(hi, 1.0)  # every factor is below 1


def average_order_constant(
    k: int, prime_bound: int = DEFAULT_PRIME_BOUND, sieve_limit: int = DEFAULT_SIEVE_LIMIT
) -> Enclosure:
    """Enclose C_k = prod_p (1 + g_k(p)/p**(k+1)) with outward rounding.

    [lo, hi] bounds the product over p <= prime_bound (`_truncated_product`), with lo
    times the tail bound 1 - (k+1)/(prime_bound - 1), as each omitted factor is in (0, 1].
    A prime bound above sieve_limit is refused before its sieve is allocated.
    """
    (k,) = tuple_args(k)
    prime_bound = positive_int(prime_bound, "prime_bound")
    if k < 2:
        raise ValueError(f"the average-order constant is defined for k >= 2 only, got k={k}")
    if prime_bound < 1000:
        raise ValueError(f"prime_bound must be at least 1000, got {prime_bound}")
    _check_sieve_budget(prime_bound, sieve_limit, "prime bound")
    lo, hi = _truncated_product(k, prime_bound)
    tail = _float_below(prime_bound - 1 - (k + 1), prime_bound - 1)  # lo >= 0: tail <= 0 gives 0
    lo = max(0.0, math.nextafter(lo * tail, -math.inf))
    return Enclosure(k, prime_bound, lo, hi)


# -- empirical error-term monitoring ----------------------------------------


ERROR_TABLE_COLUMNS = ("x", "sum", "main_term_lo", "main_term_hi", "delta", "normalized_ratio")


class ErrorRow(NamedTuple):
    """One x on the monitoring grid: exact sum against the main term."""

    x: int
    total: int
    main_lo: float
    main_hi: float
    delta: float
    ratio: float

    def as_dict(self) -> dict:
        return dict(zip(ERROR_TABLE_COLUMNS, self))


def error_term_rows(
    k: int,
    xs: list[int],
    prime_bound: int = DEFAULT_PRIME_BOUND,
    sieve_limit: int = DEFAULT_SIEVE_LIMIT,
) -> ErrorTable:
    """Exact partial sums against the enclosed main term C_k x**(k+1)/(k+1), one row per x.

    delta uses the midpoint of the enclosure; the normalized ratio
    |delta| / (x**k (log x)**(k+1)) is reported for inspection, never
    asserted against an invented constant.  Grid points must be integers >= 2.
    """
    (k,) = tuple_args(k)
    if k < 2:
        raise ValueError(f"error monitoring needs k >= 2, got k={k}")
    if not xs:
        raise ValueError("empty x grid")
    grid = sorted({positive_int(x, "grid point", least=2) for x in xs})
    _check_sieve_budget(grid[-1], sieve_limit, "grid point")
    enclosure = average_order_constant(k, prime_bound, sieve_limit)
    return ErrorTable(error_row(x, s, enclosure) for x, s in zip(grid, _direct_sums(k, grid)))


def error_row(x: int, total: int, enclosure: Enclosure) -> ErrorRow:
    """The exact sum `total` at x >= 2 against the main term enclosed by `enclosure`."""
    k = enclosure.k
    (a, b), (c, d) = enclosure.lo.as_integer_ratio(), enclosure.hi.as_integer_ratio()
    try:
        main_lo = _float_below(a * x ** (k + 1), b * (k + 1))
        main_hi = _float_above(c * x ** (k + 1), d * (k + 1))
        delta = total - enclosure.midpoint * x ** (k + 1) / (k + 1)
        ratio = abs(delta) / (x**k * math.log(x) ** (k + 1))
    except OverflowError:
        raise ValueError(f"the main term at k={k}, x={x} does not fit in a float") from None
    return ErrorRow(x, total, main_lo, main_hi, delta, ratio)


def error_table_csv(rows: list[ErrorRow]) -> str:
    """Render monitoring rows as CSV in the documented column order."""
    lines = [ERROR_TABLE_COLUMNS, *rows]
    return "".join(",".join(map(str, line)) + "\n" for line in lines)


class ErrorTable(list):
    """The rows of `error_term_rows`: printed as their CSV, and as_dict() gives their JSON."""

    __str__ = error_table_csv

    def as_dict(self) -> list[dict]:
        return [row.as_dict() for row in self]
