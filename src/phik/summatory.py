"""Exact partial sums of phi_k and a rigorous enclosure of its average-order constant.

Two independent summation routes (per-n sieve evaluation and Dirichlet
convolution against exact power sums) must agree exactly.  The constant
C_k = prod over primes of (1 + g_k(p)/p**(k+1)) is enclosed with directed
rounding: the truncated product over p <= P overestimates (every omitted
factor is below 1), and the tail is bounded below via
sum_{p > P} 1/p**2 <= 1/(P - 1).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, isqrt
from typing import TYPE_CHECKING

from .core import BudgetExceededError, cap_workers, positive_int
from .totients import _phi_k_prime_power

if TYPE_CHECKING:
    import numpy as np

# SPF arrays are int32: 4 bytes per entry, so this caps a sieve near 128 MiB.
DEFAULT_SIEVE_LIMIT = 1 << 25

DEFAULT_PRIME_BOUND = 10**6


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


def _check_sieve_budget(x: int, limit: int) -> None:
    if x > limit:
        raise BudgetExceededError(
            f"sieve of {x} entries exceeds the memory budget of {limit}; "
            f"pass a larger sieve_limit to override"
        )


@lru_cache(maxsize=1)
def _spf_sieve(limit: int) -> np.ndarray:
    """Smallest-prime-factor table for 0..limit (spf[p] = p at primes)."""
    import numpy as np

    spf = np.zeros(limit + 1, dtype=np.int32)
    for p in range(2, isqrt(limit) + 1):
        if spf[p] == 0:
            block = spf[p * p :: p]
            block[block == 0] = p
    untouched = np.flatnonzero(spf == 0)
    spf[untouched] = untouched  # remaining entries are 1 and the large primes
    return spf


def primes_up_to(limit: int) -> list[int]:
    """All primes <= limit, as plain Python ints."""
    import numpy as np

    sieve = np.ones(limit + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    return np.flatnonzero(sieve).tolist()


def _direct_range_sum(args: tuple) -> int:
    """Sum phi_k(n) for lo <= n <= hi using a sieve up to x (worker-safe)."""
    k, lo, hi, x = args
    spf = _spf_sieve(x)
    at_prime: dict[int, int] = {}
    total = 0
    for n in range(max(lo, 2), hi + 1):
        m = n
        value = 1
        while m > 1:
            p = int(spf[m])
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            c = at_prime.get(p)
            if c is None:
                c = at_prime[p] = _phi_k_prime_power(k, p, 1)
            if c == 0:
                value = 0
                break
            value *= p ** ((e - 1) * k) * c
        total += value
    if lo <= 1 <= hi:
        total += 1  # phi_k(1) = 1
    return total


def sum_phi_k_direct(
    k: int,
    x: int,
    sieve_limit: int = DEFAULT_SIEVE_LIMIT,
    workers: int = 1,
) -> PartialSum:
    """Exact sum of phi_k(n) for n <= x, one closed-form evaluation per n.

    With workers > 1 the range is partitioned and reduced in range order,
    so the total is identical regardless of worker count.  Workers are
    capped at the usable CPUs and so that each gets more than 4 numbers.
    """
    k = positive_int(k, "tuple length k")
    x = positive_int(x, "cutoff x")
    _check_sieve_budget(x, sieve_limit)
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

    g_k vanishes off squarefree numbers; power sums are memoized per
    distinct quotient (only O(sqrt x) of them occur).
    """
    k = positive_int(k, "tuple length k")
    x = positive_int(x, "cutoff x")
    _check_sieve_budget(x, sieve_limit)
    spf = _spf_sieve(x)
    g_at_prime: dict[int, int] = {}
    power_sums: dict[int, int] = {}
    total = 0
    for d in range(1, x + 1):
        m = d
        g = 1
        while m > 1:
            p = int(spf[m])
            m //= p
            if m % p == 0:
                g = 0  # squareful, g_k(d) = 0
                break
            gp = g_at_prime.get(p)
            if gp is None:
                gp = g_at_prime[p] = _phi_k_prime_power(k, p, 1) - p**k
            g *= gp
        if g == 0:
            continue
        q = x // d
        s = power_sums.get(q)
        if s is None:
            s = power_sums[q] = faulhaber_sum(k, q)
        total += g * s
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


def average_order_constant(k: int, prime_bound: int = DEFAULT_PRIME_BOUND) -> Enclosure:
    """Enclose C_k = prod_p (1 + g_k(p)/p**(k+1)) with outward rounding.

    hi: the finite product over p <= prime_bound, each factor rounded up and
    each multiplication stepped one ulp up; sound because every tail factor
    lies in (0, 1).  lo: the downward-rounded finite product times the tail
    bound 1 - (k+1)/(prime_bound - 1).  The true constant lies in [lo, hi].
    """
    k = positive_int(k, "tuple length k")
    prime_bound = positive_int(prime_bound, "prime_bound")
    if k < 2:
        raise ValueError(
            f"the average-order constant is defined for k >= 2 only, got k={k}"
        )
    if prime_bound < 1000:
        raise ValueError(f"prime_bound must be at least 1000, got {prime_bound}")
    lo, hi = 1.0, 1.0
    for p in primes_up_to(prime_bound):
        pk1 = p ** (k + 1)
        factor = Fraction(pk1 + _phi_k_prime_power(k, p, 1) - p**k, pk1)
        lo = math.nextafter(lo * _float_below(factor), -math.inf)
        hi = math.nextafter(hi * _float_above(factor), math.inf)
    tail = Fraction(prime_bound - 1 - (k + 1), prime_bound - 1)
    if tail <= 0:
        lo = 0.0
    else:
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
    _check_sieve_budget(grid[-1], sieve_limit)
    enclosure = average_order_constant(k, prime_bound)
    rows = []
    running = 0
    prev = 0
    for x in grid:
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
        main_lo = enclosure.lo * x ** (k + 1) / (k + 1)
        main_hi = enclosure.hi * x ** (k + 1) / (k + 1)
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
