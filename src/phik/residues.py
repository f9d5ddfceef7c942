"""Multiplicative functions over a range, as int64 rows rebuilt by CRT.

Row 0, the word row, holds each value modulo 2**64 and is never reduced: numpy's
int64 `+` and `*` on arrays wrap.  The other rows hold residues modulo `PRIMES`, the
seven largest primes below 2**31 (the tests prove each by trial division), so that
a product of two stays below 2**62.  An integer known
to lie in [0, 2**bits) is fixed by its rows modulo `moduli(bits)`, and `crt`
rebuilds it.  Past MAX_MODULI rows, one row of exact Python ints costs less, and
`Rows` carries that instead.  `blocks` walks the odd n of a range a block at a time
and builds f(n) in rows for a multiplicative f, from a smallest-prime-factor sieve over
the odd numbers; `Rows.block` is its block size, 2**16 odd numbers on int64 rows and 2**13
on an exact row.  The exact sums of `summatory` run on both.  Its direct route walks
`blocks` on either, and adds the powers of 2 itself; its convolution route walks no
block, and on either carries arrays over the quotient set {x // i}, whose
second-to-last axis is the rows (`Rows.reduce`).  Its power sums S_k take their
coefficients from `scaled_monomials`; numpy is imported only with this module.
"""
from __future__ import annotations

from functools import lru_cache
from math import prod
from typing import Callable

import numpy as np

from .core import exact_div

WORD = 1 << 64
PRIMES = (2147483647, 2147483629, 2147483587, 2147483579, 2147483563, 2147483549, 2147483543)
MAX_MODULI = 1 + len(PRIMES)

# Primes below this strike their multiples in a block through strided slices.
STRIDED_BELOW = 64

# Odd numbers per block of `blocks` (`Rows.block`): a walk's memory, besides the sieve and
# the prime table, is a few blocks of rows, whatever the range.  Each block pays about 100
# numpy calls, so int64 rows walk 2**16 numbers at a time: in process, with its sieve built
# each time, the direct route took 15.2 ms against 17.0 ms at 2**14 for k = 2, x = 500,000,
# and 52.9 ms against 60.8 ms for k = 3, x = 10**6.  An exact row costs far more per number
# in Python ints than in calls, so a smaller block gains no speed and bounds memory: as a
# process, `sum phi-k --k 40 --x 200000 --method direct` peaked at 37.1 MB with 2**14 odd
# numbers per block and at 34.5 MB with 2**13, at the same speed (2 vCPUs, Python 3.11,
# numpy 2.4).
WORD_BLOCK = 1 << 16
EXACT_BLOCK = 1 << 13


@lru_cache(maxsize=None)
def moduli(bits: int) -> tuple[int, ...]:
    """2**64, then the fewest of PRIMES, in order, whose product exceeds 2**bits; else ()."""
    for chosen in ((WORD, *PRIMES[:count]) for count in range(MAX_MODULI)):
        if (prod(chosen) - 1).bit_length() > bits:  # without building 2**bits
            return chosen
    return ()


def crt(residues, moduli: tuple[int, ...]) -> int:
    """The n in [0, prod(moduli)) with n = residues[j] mod moduli[j] (Garner's method)."""
    n, product = 0, 1
    for r, q in zip(map(int, residues), moduli):
        n += product * ((r - n) * pow(product, -1, q) % q)
        product *= q
    return n


def scaled_monomials(values: list[int]) -> tuple[list[int], int]:
    """(c, k!) with k! f(t) = sum_i c[i] t**i, for the f of degree <= k with f(1 .. k+1) = values.

    With D_i the i-th difference of f at 1, f(t) = sum_i D_i C(t-1, i) (Newton's forward
    form); scaled by k!, it is M_0 = k! f with M_i = k!/i! D_i + (t-1-i) M_(i+1), in integers.
    """
    k, diffs, heads = len(values) - 1, values, []
    while diffs:
        heads.append(diffs[0])
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
    scaled, scale = [0] * (k + 1), 1  # scale = k!/i!
    for i in range(k, -1, -1):
        scaled = [low - (i + 1) * c for low, c in zip([0, *scaled], scaled)]  # (t-1-i) M_(i+1)
        scaled[0] += scale * heads[i]
        scale *= max(i, 1)
    return scaled, scale


def monomials(f: Callable[[int], int], k: int) -> list[int]:
    """The integers c with f(t) = sum_i c[i] t**i, for f of degree <= k, from f(1 .. k+1)."""
    scaled, scale = scaled_monomials([f(t) for t in range(1, k + 2)])
    return [exact_div(c, scale) for c in scaled]


class Rows:
    """Values of a sum of phi_k or g_k up to x, as one word row and prime rows, or one exact row.

    Every such sum, and every partial range of it, lies in [0, x**(k+1)), as
    0 <= phi_k(n) <= n**k; and x**(k+1) < 2**((k+1) * bits(x)).  So the rows
    modulo `moduli` of that many bits fix it, and `exact` rebuilds it.  When that
    takes more than MAX_MODULI rows, there is one row of exact Python ints.
    `block` is the numbers per block of a walk over them (`blocks`).
    """

    def __init__(self, k: int, x: int):
        self.moduli = moduli((k + 1) * x.bit_length())
        self.mod = np.array(self.moduli[1:], dtype=np.int64)[:, None]
        self.block = WORD_BLOCK if self.moduli else EXACT_BLOCK

    def of(self, values: list[int]) -> np.ndarray:
        """Exact integers as least absolute residues (signed in the word row), or one exact row."""
        if not self.moduli:
            return np.array(values, dtype=object)[None, :]
        residues = [[(v + q // 2) % q - q // 2 for v in values] for q in self.moduli]
        return np.array(residues, dtype=np.int64).reshape(len(self.moduli), len(values))

    def ones(self, size: int) -> np.ndarray:
        return np.ones((len(self.moduli) or 1, size), dtype=np.int64 if self.moduli else object)

    def polynomial(self, f: Callable[[int], int], k: int, t: np.ndarray) -> np.ndarray:
        """Rows of f(t) at each entry of t, for f an integer polynomial of degree <= k.

        An exact row holds f(t) itself.  Otherwise every row evaluates the monomial
        form (`monomials`) by Horner's rule: the word row wraps, and a prime row
        is reduced after each step.
        """
        if not self.moduli:
            return np.fromiter(map(f, t.tolist()), dtype=object, count=t.size)[None, :]
        *rest, top = self.of(monomials(f, k)).T
        table = np.repeat(top[:, None], t.size, axis=1)
        at = np.vstack([t, t % self.mod])
        for c in reversed(rest):
            table *= at
            table += c[:, None]
            self.reduce(table)
        return table

    def reduce(self, a: np.ndarray) -> np.ndarray:
        """The prime rows of a, its second-to-last axis, reduced in place (the word row stays)."""
        if self.mod.size:
            a[..., 1:, :] %= self.mod
        return a

    def exact(self, total: np.ndarray) -> int:
        """The exact integer whose rows are the column `total`."""
        return crt(total[:, 0], self.moduli) if self.moduli else int(total[0, 0])


def blocks(lo: int, hi: int, sieve: tuple, rows: Rows, first: np.ndarray, again: np.ndarray):
    """Yield (n, value) for the odd n in lo..hi, `rows.block` of them at a time, with value[:, i]
    the rows of f(n[i]).

    sieve = (primes, spf) over the odd numbers up to at least hi: primes[j] is the j-th odd
    prime, primes[0] = 1, and spf[n >> 1] is the index of odd n's smallest prime factor (0 at
    n = 1).  f is multiplicative: f(p) = first[:, j] and f(p**(e+1)) = f(p**e) * again[:, j]
    at p = primes[j], with first[:, 0] = f(1) = 1; `again` needs the primes up to sqrt(hi)
    only.  Each odd prime below STRIDED_BELOW, and each of its powers q, strikes its multiples
    in the block through one strided slice: a block is n = start + 2 i, and q | n at
    i = -start (q + 1)/2 mod q, (q + 1)/2 being 1/2 mod q, then every q-th i.  What is left of
    n then has fewer than log(n)/log(STRIDED_BELOW) prime factors; the smallest one is peeled
    off through the sieve, round after round, on the numbers not yet at 1.  Memory is one block
    of rows and a few block-long temporaries: a caller drops its (n, value) before it asks for
    the next block, and so does this walk.
    """
    primes, spf = sieve
    strided = [(j, int(primes[j])) for j in range(1, int(np.searchsorted(primes, STRIDED_BELOW)))]
    size = rows.block
    for start in range(lo | 1, hi + 1, 2 * size):
        n = np.arange(start, min(start + 2 * size, hi + 1), 2)
        value = rows.ones(n.size)
        rest = n.copy()
        for j, p in strided:
            power, factor = p, first[:, j : j + 1]
            while power <= n[-1]:
                hit = slice(-start * (power + 1) // 2 % power, None, power)
                rest[hit] //= p
                value[:, hit] *= factor
                rows.reduce(value[:, hit])
                power, factor = power * p, again[:, j : j + 1]
        pos = spf[rest >> 1]  # the first round takes the whole block: spf[0] = 0 and f(1) = 1
        for row, at_p in zip(value, first):
            row *= at_p.take(pos)
        rows.reduce(value)
        rest //= primes[pos]
        idx = np.flatnonzero(rest > 1)
        rest, last = rest[idx], pos[idx]
        while idx.size:
            pos = spf[rest >> 1]
            repeated = np.flatnonzero(pos == last)  # the round before peeled the same p
            for row, at_p, at_repeat, q in zip(value, first, again, (None, *rows.moduli[1:])):
                factor = at_p.take(pos)  # per-row 1-D gathers: far cheaper than 2-D indexing
                factor[repeated] = at_repeat.take(pos[repeated])
                factor *= row[idx]
                row[idx] = factor if q is None else factor - factor // q * q  # faster than % q
            rest //= primes[pos]
            left = rest > 1
            idx, rest, last = idx[left], rest[left], pos[left]
        yield n, value
        del n, value, row  # row is a view of value
