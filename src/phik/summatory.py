"""Exact partial sums of phi_k and a rigorous enclosure of its average-order constant.

Two independent summation routes (per-n sieve evaluation and Dirichlet
convolution against exact power sums) must agree exactly.  The constant
C_k = prod over primes of (1 + g_k(p)/p**(k+1)) is enclosed by one float64 pass
over p <= P, widened by a rounding bound proven in advance; the truncated product
overestimates (every omitted factor is below 1), and the tail is bounded below
via sum_{p > P} 1/p**2 <= 1/(P - 1).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, isqrt
from typing import TYPE_CHECKING, Callable

from .core import BudgetExceededError, cap_workers, positive_int
from .totients import _g_k_prime, _phi_k_prime_power

if TYPE_CHECKING:
    import numpy as np

# SPF arrays are int32: 4 bytes per entry, so this caps a sieve near 128 MiB.
DEFAULT_SIEVE_LIMIT = 1 << 25

DEFAULT_PRIME_BOUND = 10**6

# Numbers per block of the vectorized sums; besides the sieve and the prime table,
# their memory is one block, whatever x is.
BLOCK = 1 << 14


@dataclass(frozen=True)
class PartialSum:
    """Exact value of sum_{n <= x} phi_k(n) and the route that produced it."""

    k: int
    x: int
    value: int
    method: str  # "direct_sieve" or "convolution"

    def as_dict(self) -> dict:
        return {
            "k": str(self.k),
            "x": str(self.x),
            "value": str(self.value),
            "method": self.method,
        }


@dataclass(frozen=True)
class Enclosure:
    """Directed-rounding interval [lo, hi] certified to contain the constant."""

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

    def __contains__(self, value: float) -> bool:
        return self.lo <= value <= self.hi

    def as_dict(self) -> dict:
        return {
            "k": str(self.k),
            "prime_bound": str(self.prime_bound),
            "lo": self.lo,
            "hi": self.hi,
            "width": self.width,
        }


def _check_sieve_budget(n: int, limit: int, what: str) -> None:
    if n > limit:
        raise BudgetExceededError(f"{what} {n} is above the sieve limit of {limit}")


@lru_cache(maxsize=1)
def _spf_sieve(limit: int) -> tuple[np.ndarray, np.ndarray]:
    """Smallest prime factors of 0..limit, stored as indices into a prime table.

    Returns (primes, spf): primes[1:] are the primes <= limit in order and
    primes[0] = 1; primes[spf[n]] is the smallest prime factor of n >= 2,
    and spf[1] = 0.
    """
    import numpy as np

    spf = np.zeros(limit + 1, dtype=np.int32)
    for found, p in enumerate(primes_up_to(isqrt(limit)), 1):
        block = spf[p * p :: p]
        block[block == 0] = found
    untouched = np.flatnonzero(spf == 0)  # 0, 1 and every prime
    spf[untouched] = np.arange(-1, untouched.size - 1)
    return untouched[1:], spf


def _prime_array(limit: int) -> np.ndarray:
    """All primes <= limit, as an int64 array."""
    import numpy as np

    sieve = np.ones(limit + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    return np.flatnonzero(sieve)


def primes_up_to(limit: int) -> list[int]:
    """All primes <= limit, as plain Python ints."""
    return _prime_array(limit).tolist()


@lru_cache(maxsize=1)
def _prime_values(at_prime: Callable[[int, int], int], k: int, limit: int) -> np.ndarray:
    """at_prime(k, p), an exact int, at each entry p of the prime table up to limit."""
    import numpy as np

    primes, _ = _spf_sieve(limit)
    return np.fromiter((at_prime(k, p) for p in map(int, primes)), dtype=object, count=primes.size)


def _peeled_blocks(lo: int, hi: int, limit: int):
    """Split lo..hi into blocks of at most BLOCK numbers and peel each one.

    Yields (n, rounds) per block.  Each round divides every n not yet
    reduced to 1 by its smallest prime factor p, found in the sieve up to
    limit, and yields (idx, pos, repeated): positions in the block, the
    index of p in the prime table, and whether the round before peeled the
    same p (so p**2 divides n).
    """
    import numpy as np

    primes, spf = _spf_sieve(limit)

    def rounds(n):
        idx = np.flatnonzero(n > 1)
        m, last = n[idx], 0
        while idx.size:
            pos = spf[m]
            yield idx, pos, pos == last
            m //= primes[pos]
            left = m > 1
            idx, m, last = idx[left], m[left], pos[left]

    for start in range(lo, hi + 1, BLOCK):
        n = np.arange(start, min(start + BLOCK, hi + 1))
        yield n, rounds(n)


def _direct_range_sum(args: tuple) -> int:
    """Sum phi_k(n) for lo <= n <= hi using a sieve up to x (worker-safe).

    The numbers are taken BLOCK at a time.  As each n is peeled, phi_k(n)
    gains a factor phi_k(p) for each new prime p and p**k for each repeated
    one.  Memory is the sieve and the prime table up to x plus one block,
    whatever the range.
    """
    import numpy as np

    k, lo, hi, x = args
    at_prime = _prime_values(_phi_k_prime_power, k, x)
    primes, _ = _spf_sieve(x)
    # a repeated prime is at most sqrt(x), and its index in the table is below it
    prime_powers = primes[: isqrt(x) + 1].astype(object) ** k
    total = 0
    for n, rounds in _peeled_blocks(lo, hi, x):
        value = np.ones(n.size, dtype=object)  # phi_k(1) = 1
        for idx, pos, repeated in rounds:
            factor = at_prime[pos]
            factor[repeated] = prime_powers[pos[repeated]]
            value[idx] *= factor
        total += value.sum()
    return total


def sum_phi_k_direct(
    k: int,
    x: int,
    sieve_limit: int = DEFAULT_SIEVE_LIMIT,
    workers: int = 1,
) -> PartialSum:
    """Exact sum of phi_k(n) for n <= x, evaluating phi_k(n) at every n.

    With workers > 1 the range is partitioned and reduced in range order,
    so the total is identical regardless of worker count.  Workers are
    capped at the usable CPUs and so that each gets more than 4 numbers.
    """
    k = positive_int(k, "tuple length k")
    x = positive_int(x, "cutoff x")
    _check_sieve_budget(x, sieve_limit, "cutoff x")
    workers = cap_workers(workers, (x - 1) // 4)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        bounds = [1 + (x * i) // workers for i in range(workers + 1)]
        chunks = [
            (k, bounds[i], bounds[i + 1] - 1, x) for i in range(workers)
        ]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            total = sum(pool.map(_direct_range_sum, chunks))
    else:
        total = _direct_range_sum((k, 1, x, x))
    return PartialSum(k, x, total, "direct_sieve")


def sum_phi_k_convolution(
    k: int, x: int, sieve_limit: int = DEFAULT_SIEVE_LIMIT
) -> PartialSum:
    """Exact sum of phi_k(n) for n <= x via sum_{d <= x} g_k(d) * S_k(x // d).

    g_k(d), the product of g_k(p) = phi_k(p) - p**k over the primes of a
    squarefree d and 0 otherwise, is built as d is peeled, BLOCK numbers at
    a time.  It is summed over each run of equal quotients x // d in a
    block, and S_k is evaluated once per distinct quotient (O(sqrt x)).
    """
    k = positive_int(k, "tuple length k")
    x = positive_int(x, "cutoff x")
    _check_sieve_budget(x, sieve_limit, "cutoff x")
    import numpy as np

    g_at_prime = _prime_values(_g_k_prime, k, x)
    power_sums: dict[int, int] = {}
    total = 0
    for d, rounds in _peeled_blocks(1, x, x):
        g = np.ones(d.size, dtype=object)  # g_k(1) = 1
        for idx, pos, repeated in rounds:
            g[idx] *= np.where(repeated, 0, g_at_prime[pos])  # squareful d: g_k(d) = 0
        q = x // d
        starts = np.flatnonzero(np.diff(q, prepend=0))
        for quotient, g_sum in zip(q[starts].tolist(), np.add.reduceat(g, starts).tolist()):
            if g_sum:
                s = power_sums.get(quotient)
                if s is None:
                    s = power_sums[quotient] = faulhaber_sum(k, quotient)
                total += g_sum * s
    return PartialSum(k, x, total, "convolution")


# -- exact power sums -------------------------------------------------------


@lru_cache(maxsize=None)
def _bernoulli(j: int) -> Fraction:
    # B_1 = -1/2 convention; sum_{i <= j} C(j+1, i) B_i = 0 pins each value
    if j == 0:
        return Fraction(1)
    acc = sum(comb(j + 1, i) * _bernoulli(i) for i in range(j))
    return -Fraction(acc, j + 1)


@lru_cache(maxsize=None)
def _faulhaber_coeffs(k: int) -> tuple[Fraction, ...]:
    # S_k(m) = 1/(k+1) * sum_{j=0}^{k} (-1)**j C(k+1, j) B_j m**(k+1-j)
    return tuple(
        Fraction((-1) ** j * comb(k + 1, j)) * _bernoulli(j) / (k + 1)
        for j in range(k + 1)
    )


def faulhaber_sum(k: int, m: int) -> int:
    """Exact 1**k + 2**k + ... + m**k via the Bernoulli-number polynomial."""
    if k < 0:
        raise ValueError(f"exponent k must be >= 0, got {k}")
    if m < 0:
        raise ValueError(f"upper limit m must be >= 0, got {m}")
    if m == 0:
        return 0
    val = sum(
        coeff * m ** (k + 1 - j) for j, coeff in enumerate(_faulhaber_coeffs(k))
    )
    assert val.denominator == 1
    return int(val)


# -- the average-order constant ---------------------------------------------


def _float_below(r: Fraction) -> float:
    x = float(r)
    return x if x <= r else math.nextafter(x, -math.inf)


def _float_above(r: Fraction) -> float:
    x = float(r)
    return x if x >= r else math.nextafter(x, math.inf)


def _power(x: np.ndarray, k: int) -> np.ndarray:
    """x**k elementwise by repeated squaring, with correctly rounded products only."""
    if k == 1:
        return x
    half = _power(x * x, k // 2)
    return half * x if k % 2 else half


def _factors(k: int, t: np.ndarray) -> np.ndarray:
    """r_p = 1 + g_k(p)/p**(k+1) = 1 - t*v, v = 1 - w*(w**k - (-t)**k), at t = 1/p, w = 1 - t.

    With u = 2**-53 and x' the computed x, all values lie in [0, 1] (for odd k, w**k + t**k <=
    w + t/2 <= 1): a rounding errs by <= u/2, underflow included, or u*z at a normal z, and
    |a'b' - ab| <= |a' - a| + |b' - b|.  So t errs by u*t, w by e_w = u*t + u/2, v by (k+1)*e_w +
    k*u*t + (2k+1)*u/2, t*v by u*t + t*e_v + u*t*(1+u) + 2**-1075, r_p by <= (3k+5)*u*t + u/2.
    """
    w = 1.0 - t
    s = _power(w, k) - (-1) ** (k % 2) * _power(t, k)  # a sign flip is exact
    return 1.0 - t * (1.0 - w * s)


def _truncated_product(k: int, prime_bound: int) -> tuple[float, float]:
    """Floats lo <= prod_{p <= P} r_p <= hi, for P = prime_bound and N primes.

    As 1/r_p <= 1 + 2t, r'_p = r_p*(1 + e_p), |e_p| <= (6k+11)*u*t + u/2.  A product of N floats
    errs by a factor 1 + theta, |theta| <= gamma = (N-1)u/(1-(N-1)u), in any order (Higham,
    Accuracy and Stability of Numerical Algorithms, sec. 3.1; prod (1 - 1/p) >= 1/P: no underflow).
    With sum t <= ln P < 0.7*bits(P), slack = (6k+11)*u*0.7*bits(P) + N*u/2 + gamma: the product
    is in [prod'*(1 - slack), prod'/(1 - slack)], or in [0, 1] if slack >= 1 (k near 10**14).
    """
    primes = _prime_array(prime_bound)
    blocks = (primes[i : i + BLOCK] for i in range(0, primes.size, BLOCK))  # bounds memory
    product = math.prod(float(_factors(k, 1.0 / block).prod()) for block in blocks)
    slack = Fraction((6 * k + 11) * 7 * prime_bound.bit_length(), 10 * 2**53)
    slack += Fraction(primes.size, 2**54) + Fraction(primes.size - 1, 2**53 - (primes.size - 1))
    lo = max(0.0, math.nextafter(product * _float_below(1 - slack), -math.inf))
    hi = math.nextafter(product * _float_above(1 / (1 - slack)), math.inf) if slack < 1 else 1.0
    return lo, hi


def average_order_constant(
    k: int, prime_bound: int = DEFAULT_PRIME_BOUND, sieve_limit: int = DEFAULT_SIEVE_LIMIT
) -> Enclosure:
    """Enclose C_k = prod_p (1 + g_k(p)/p**(k+1)) with outward rounding.

    [lo, hi] bounds the product over p <= prime_bound (`_truncated_product`), with lo
    times the tail bound 1 - (k+1)/(prime_bound - 1), as each omitted factor is in (0, 1].
    A prime bound above sieve_limit is refused before its sieve is allocated.
    """
    k = positive_int(k, "tuple length k")
    prime_bound = positive_int(prime_bound, "prime_bound")
    if k < 2:
        raise ValueError(f"the average-order constant is defined for k >= 2 only, got k={k}")
    if prime_bound < 1000:
        raise ValueError(f"prime_bound must be at least 1000, got {prime_bound}")
    _check_sieve_budget(prime_bound, sieve_limit, "prime bound")
    lo, hi = _truncated_product(k, prime_bound)
    tail = Fraction(prime_bound - 1 - (k + 1), prime_bound - 1)  # lo >= 0, so tail <= 0 gives 0
    lo = max(0.0, math.nextafter(lo * _float_below(tail), -math.inf))
    return Enclosure(k, prime_bound, lo, hi)


# -- empirical error-term monitoring ----------------------------------------


@dataclass(frozen=True)
class ErrorRow:
    """One x on the monitoring grid: exact sum against the main term."""

    x: int
    total: int
    main_lo: float
    main_hi: float
    delta: float
    ratio: float

    def as_dict(self) -> dict:
        return {
            "x": str(self.x),
            "sum": str(self.total),
            "main_term_lo": self.main_lo,
            "main_term_hi": self.main_hi,
            "delta": self.delta,
            "normalized_ratio": self.ratio,
        }


ERROR_TABLE_COLUMNS = ("x", "sum", "main_term_lo", "main_term_hi", "delta", "normalized_ratio")


def error_term_rows(
    k: int,
    xs: list[int],
    prime_bound: int = DEFAULT_PRIME_BOUND,
    sieve_limit: int = DEFAULT_SIEVE_LIMIT,
) -> list[ErrorRow]:
    """Exact partial sums against the enclosed main term C_k x**(k+1)/(k+1).

    delta uses the midpoint of the enclosure; the normalized ratio
    |delta| / (x**k (log x)**(k+1)) is reported for inspection, never
    asserted against an invented constant.  Grid points must be >= 2.
    """
    k = positive_int(k, "tuple length k")
    if k < 2:
        raise ValueError(f"error monitoring needs k >= 2, got k={k}")
    if not xs:
        raise ValueError("empty x grid")
    grid = sorted(set(xs))
    if grid[0] < 2:
        raise ValueError(f"grid points must be >= 2, got {grid[0]}")
    _check_sieve_budget(grid[-1], sieve_limit, "grid point")
    enclosure = average_order_constant(k, prime_bound, sieve_limit)
    rows = []
    running = 0
    prev = 0
    for x in grid:  # every range shares the sieve and prime table up to grid[-1]
        running += _direct_range_sum((k, prev + 1, x, grid[-1]))
        prev = x
        rows.append(error_row(x, running, enclosure))
    return rows


def error_row(x: int, total: int, enclosure: Enclosure) -> ErrorRow:
    """The exact sum `total` at x >= 2 against the main term enclosed by `enclosure`."""
    if x < 2:
        raise ValueError(f"grid points must be >= 2, got {x}")
    k = enclosure.k
    try:
        main_lo = _float_below(Fraction(enclosure.lo) * x ** (k + 1) / (k + 1))
        main_hi = _float_above(Fraction(enclosure.hi) * x ** (k + 1) / (k + 1))
        delta = total - enclosure.midpoint * x ** (k + 1) / (k + 1)
        ratio = abs(delta) / (x**k * math.log(x) ** (k + 1))
    except OverflowError:
        raise ValueError(
            f"the main term at k={k}, x={x} does not fit in a float"
        ) from None
    return ErrorRow(x, total, main_lo, main_hi, delta, ratio)


def error_table_csv(rows: list[ErrorRow]) -> str:
    """Render monitoring rows as CSV in the documented column order."""
    lines = [",".join(ERROR_TABLE_COLUMNS)]
    for row in rows:
        rec = row.as_dict()
        lines.append(",".join(str(rec[col]) for col in ERROR_TABLE_COLUMNS))
    return "\n".join(lines) + "\n"
