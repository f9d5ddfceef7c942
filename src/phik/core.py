"""Integer factorization, divisors, and multiplicative arithmetic functions.

All values are exact: integers, or the `Fraction`s a caller's function
returns, never floats.  Functions here are pure and safe to call concurrently.
`tuple_args` is the one argument gate of every tuple count, and `table_lookup` the
one table rule, for `table:` files and Mappings alike.
`ROUTES` names every route to each quantity, once, for the command line and the sweeps.
`power` builds every k-th power of a closed form, and refuses one no printable answer needs;
`_phi_k_prime_power` and `_g_k_prime` live beside it, so the sums need no `totients`.
`parallel_map` runs the direct sum's ranges, one process each.

All exhaustive work is priced in 64-bit word operations against one fixed DEFAULT_ORACLE_BUDGET,
by `check_word_budget`, before it starts: an oracle by its kernel (`totients.unit_sum_price`,
`totients.fold_price`; a w-word product costs `product_price(w)`), a sweep at the sum of its
cells, recursions, divisor sums, exact rows and S_k at steps times `words_of` their numbers.  The
weights were calibrated once so that each largest admitted input ends within 3.3 s as a process
(2-core x86, Python 3.11.7): its n (or n_max) at k (or k_max) 1 | 3 | 6, and median seconds:
    phi-k, n-k, gcd-sum oracles   2**20 (`units_mod`'s cap) 0.9-1.2 | 79224 1.4 | 33790 1.3-1.7
    joint-gcd oracle              2000000 1.5 | 27720 1.2 | 25200 0.9
    verify menon, sita-ramaiah    1949 1.8 | 987 1.6 | 600 1.9; sita-ramaiah (k = 2) 1737 1.7
    verify nageswara-rao          1950 0.7 | 639 0.9 | 329 0.8
    verify phi-k-nm               699 0.4 | 395 0.5 | 269 0.6
    verify lemmas                 363 1.4 | 239 1.1 | 159 1.0
    largest k_max at n_max 1      menon 35164 1.6, nageswara-rao 29956 1.2, phi-k-nm 1551 1.1
"""
from __future__ import annotations

import operator
import os
from functools import lru_cache, partial
from importlib import import_module
from math import comb, gcd
from typing import TYPE_CHECKING, Callable, Mapping, NamedTuple, Union

if TYPE_CHECKING:
    from fractions import Fraction

ArithValue = Union[int, "Fraction"]
ArithFn = Union["MultiplicativeFunction", Callable[[int], ArithValue], Mapping[int, int]]


class BudgetExceededError(Exception):
    """An exhaustive computation refused to run: it would exceed its budget.

    `limit` names the parameter that sets the refused budget ("sieve_limit"), or is None where no
    caller can raise it.
    """

    def __init__(self, message: str, limit: str | None = None):
        super().__init__(message)
        self.limit = limit


# The fixed cap on all priced work, in 64-bit word operations (`check_word_budget`).
DEFAULT_ORACLE_BUDGET = 10**8

# The weights of the one price, in word operations: a residue walked, a pair of keys
# `totients.fold_counts` combines, a recursion level and a sweep point (calibrated above).
RESIDUE_PRICE = 50
PAIR_PRICE = 40
LEVEL_PRICE = 64
POINT_PRICE = 2500
KARATSUBA_WORDS = 32  # CPython multiplies schoolbook up to 70 30-bit digits

# SPF arrays are int32: 4 bytes per entry, so this caps a sieve near 128 MiB.
DEFAULT_SIEVE_LIMIT = 1 << 25

DEFAULT_PRIME_BOUND = 10**6


# Each quantity's routes, "module.function" by name: the first is the default and the one the
# others are checked against (by `cli._agree`, and at every point of a `menon.verify_sweep` kind,
# the identities' included), "oracle" counts from the definition, and they run last listed first
# (`route_order`): an oracle, or the convolution sum, refuses before any other route runs.  A name
# is resolved when called (`library`), so only a route that runs imports its module, and a
# function replaced on its module (by a tracer, say) is the one called.  A value prints as its
# str, and in JSON as its as_dict() where it has one (the constant's enclosure, the error table).
ROUTES = {
    "phi-k": {"closed": "totients.phi_k", "oracle": "totients.phi_k_oracle"},
    "phi-k-nm": {"closed": "totients.phi_k_nm", "recursion": "totients.phi_k_nm_recursion",
                 "oracle": "totients.phi_k_nm_oracle"},
    "g-k": {"closed": "totients.g_k"},
    "n-k": {"closed": "totients.n_k", "recursion": "totients.n_k_recursion",
            "oracle": "totients.n_k_oracle"},
    "jordan": {"closed": "core.jordan_totient"},
    "gcd-sum": {"closed": "menon.gcd_sum_rhs", "oracle": "menon.gcd_sum_lhs_oracle"},
    "joint-gcd-sum": {"identity": "menon.nageswara_rao_rhs",
                      "oracle": "menon.nageswara_rao_lhs_oracle"},
    "sum-phi-k": {"direct": "summatory.sum_phi_k_direct",
                  "convolution": "summatory.sum_phi_k_convolution"},
    "constant": {"product": "summatory.average_order_constant"},
    "error-table": {"direct": "summatory.error_term_rows"},
}
# An identity's closed form comes first, then the routes to its sum: Nageswara Rao's above, and
# Menon's for phi_k at f = id (Sita Ramaiah's at k = 2), which has every route of "gcd-sum".
ROUTES["gcd-sum-id"] = {"identity": "menon.menon_gcd_rhs", **ROUTES["gcd-sum"]}

# The longest power `power` builds, in bits (3**(2**20) takes about 0.2 s).  A closed form's value
# has at least about half the bits of each power it builds (phi_k, J_k, id_k: the power divides
# it or is within 2 bits; |g_k(p)| >= p**(k-1) / 2 against p**k; N_k >= phi(n)**(k-1) / 3**omega(n)
# against phi(n)**k), so no answer of at most 10**5 digits (332,193 bits) needs a power near this.
MAX_POWER_BITS = 1 << 20


def library(name: str) -> Callable:
    """The library function named "module.function", importing its module if need be."""
    module, attr = name.split(".")
    return getattr(import_module(f"{__package__}.{module}"), attr)


def route_order(routes: Mapping[str, Callable], method: str = "all") -> list[tuple[str, Callable]]:
    """The (route, function) pairs to run, last listed first: `method` alone, or every route
    when it names none ("all", "both"); resolved once per command or sweep cell."""
    return [(route, routes[route]) for route in reversed(routes)
            if method == route or method not in routes]


def positive_int(value, name: str, least: int = 1) -> int:
    """value as a Python int when it is an integer >= least (1 by default), else a domain error.

    Any integer type is accepted (numpy integers included); bool, floats and
    everything else are rejected.
    """
    if type(value) is int and value >= least:  # the common case, at every layer of a sweep
        return value
    try:
        n = operator.index(value)
    except TypeError:
        n = least - 1
    if n < least or isinstance(value, bool):
        rule = "a positive integer" if least == 1 else f"an integer >= {least}"
        raise ValueError(f"{name} must be {rule}, got {value!r}")
    return n


def tuple_args(k, n=None, **divisors) -> tuple[int, ...]:
    """(k, n, *divisors) as Python ints, checked in that order, else a domain error.

    k and n are positive; each keyword names a positive divisor of n.  A None k or n is skipped.
    """
    checked = [] if k is None else [positive_int(k, "tuple length k")]
    if n is not None:
        n = positive_int(n, "modulus n")
        checked.append(n)
        for name, d in divisors.items():
            d = positive_int(d, name)
            if n % d != 0:
                raise ValueError(f"{name}={d} must be a positive divisor of n={n}")
            checked.append(d)
    return tuple(checked)


def cap_workers(workers: int, tasks: int) -> int:
    """Worker processes to start: no more than asked for, usable CPUs, or tasks."""
    workers = positive_int(workers, "worker count")
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return max(1, min(workers, cpus, tasks))


def parallel_map(fn: Callable, tasks: list) -> list:
    """[fn(t) for t in tasks], each task in a process of its own when there are several; the
    caller sizes tasks by `cap_workers`."""
    if len(tasks) == 1:
        return [fn(tasks[0])]
    import concurrent.futures  # looked up per call, so a stand-in pool can be patched in

    with concurrent.futures.ProcessPoolExecutor(max_workers=len(tasks)) as pool:
        return list(pool.map(fn, tasks))


def words_of(bits: int) -> int:
    """The 64-bit words of a number of `bits` bits, one at least (under a word is priced as one)."""
    return max(1, bits // 64)


def product_price(words: int) -> int:
    """The word operations of one product of two `words`-word numbers: words**2 up to
    KARATSUBA_WORDS, then Karatsuba's words**log2(3), linear between powers of two (and past
    2**4096 words, where 3**e would be built, its line extended: a lower bound)."""
    if words <= KARATSUBA_WORDS:
        return words * words
    e = min(words.bit_length() - 1, 4096)
    return 3**e * (2 * words - (1 << e)) >> e


def check_word_budget(price: int, what: str) -> None:
    """Refuse work priced at more than DEFAULT_ORACLE_BUDGET word operations, naming both; a price
    past 4,096 bits is printed by its bit length."""
    if price > DEFAULT_ORACLE_BUDGET:
        shown = price if price.bit_length() <= 4096 else f"at least 2**{price.bit_length() - 1}"
        raise BudgetExceededError(f"{what} would take {shown} word operations, over the budget "
                                  f"of {DEFAULT_ORACLE_BUDGET}")


def power(base: int, e: int) -> int:
    """base**e for e >= 0, refused before it is built when (bits(|base|) - 1) e, a lower bound
    on its length, is over MAX_POWER_BITS."""
    if (abs(base).bit_length() - 1) * e > MAX_POWER_BITS:
        raise BudgetExceededError(f"the power {base}**{e} has more than {MAX_POWER_BITS} bits, "
                                  "the longest phik builds")
    return base**e


def _phi_k_prime_power(k: int, p: int, e: int = 1) -> int:
    # (p-1)**k == (-1)**k (mod p), so the division by p is exact.
    sign = -1 if k % 2 else 1
    return power(p, (e - 1) * k) * exact_div((p - 1) * (power(p - 1, k) - sign), p)


def _g_k_prime(k: int, p: int) -> int:
    # g_k(p) = phi_k(p) - p**k; lies in (-(k+1) p**(k-1), 0) for k >= 2.
    return _phi_k_prime_power(k, p, 1) - power(p, k)


def exact_div(a: int, b: int) -> int:
    """a / b where b is known to divide a; a remainder is an ArithmeticError, even under -O."""
    q, r = divmod(a, b)
    if r:
        raise ArithmeticError("exact_div: the divisor leaves a nonzero remainder")
    return q


class Factorization(NamedTuple):
    """Canonical prime-power decomposition: n = prod p**e, primes increasing."""

    n: int
    factors: tuple[tuple[int, int], ...]

    def omega(self) -> int:
        return len(self.factors)

    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)


# Trial division stops at this prime bound; a cofactor left above its square
# has no prime factor below it and goes to Miller-Rabin and Pollard-Brent rho.
TRIAL_DIVISION_BOUND = 1 << 10
# 2, 3, then 6j - 1 and 6j + 1: every prime up to the bound, and some composites.
TRIAL_DIVISORS = (2, 3, *(q for d in range(5, TRIAL_DIVISION_BOUND + 1, 6) for q in (d, d + 2)))

# The first 13 primes as strong-probable-prime bases: no composite below
# psi_13 passes all of them (Sorenson-Webster, Math. Comp. 86, 2017).
MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PSI_13 = 3317044064679887385961981

# Cap on the rho steps (iterations of y -> y*y + c mod m) spent on one n.
DEFAULT_FACTOR_BUDGET = 10**6


def _strip_small_primes(n: int) -> tuple[list[tuple[int, int]], int]:
    """Divide out primes up to TRIAL_DIVISION_BOUND; returns them and the cofactor.

    A cofactor below the bound squared is 1 or prime.
    """
    factors = []
    m = n
    for p in TRIAL_DIVISORS:
        if p * p > m:  # m is 1 or prime
            break
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            factors.append((p, e))
    return factors, m


def _is_prime(m: int) -> bool:
    """Primality of an odd m > 41 by Miller-Rabin, refused where it is no proof.

    A witness of compositeness is always a proof; a pass of every base is a
    proof only below PSI_13.
    """
    d = m - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in MILLER_RABIN_BASES:
        x = pow(a, d, m)
        if x == 1 or x == m - 1:
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    if m >= PSI_13:
        raise BudgetExceededError(
            f"cannot certify that the cofactor {m} is prime: it passes Miller-Rabin "
            f"to bases 2..41, a proof only below psi_13 = {PSI_13}"
        )
    return True


def _rho_divisor(m: int, budget: int) -> tuple[int, int]:
    """A proper divisor of the odd composite m by Pollard-Brent rho, and the steps spent.

    Brent's cycle search with one gcd per batch of steps; the polynomial
    y*y + c is retried with the next c when a batch overshoots to m.  No
    step is taken past `budget` (retracing a counted batch is not counted
    again), and the route is deterministic, so a refusal repeats.
    """

    def check(needed: int) -> None:
        if steps + needed > budget:
            raise BudgetExceededError(
                f"Pollard rho would need over {DEFAULT_FACTOR_BUDGET} steps "
                f"to split the cofactor {m}"
            )

    steps = 0
    batch = 128
    for c in range(1, m):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            check(r)
            x = y
            for _ in range(r):
                y = (y * y + c) % m
            steps += r
            done = 0
            while done < r and g == 1:
                size = min(batch, r - done)
                check(size)
                ys = y
                for _ in range(size):
                    y = (y * y + c) % m
                    q = q * abs(x - y) % m
                steps += size
                done += size
                g = gcd(q, m)
            r *= 2
        if g == m:  # the batch overshot: step through it one gcd at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % m
                g = gcd(abs(x - ys), m)
        if g != m:
            return g, steps
    raise AssertionError(f"no rho polynomial splits {m}")


@lru_cache(maxsize=1 << 16)
def _prime_factors(n: int) -> tuple[tuple[int, int], ...]:
    factors, m = _strip_small_primes(n)
    if m < TRIAL_DIVISION_BOUND**2:
        if m > 1:
            factors.append((m, 1))
        return tuple(factors)
    exponents: dict[int, int] = {}
    budget = DEFAULT_FACTOR_BUDGET
    pending = [m]
    while pending:
        m = pending.pop()
        if _is_prime(m):
            exponents[m] = exponents.get(m, 0) + 1
            continue
        g, steps = _rho_divisor(m, budget)
        budget -= steps
        pending += [g, m // g]
    return tuple(factors + sorted(exponents.items()))


def factorize(n: int) -> Factorization:
    """Factor a positive integer into certified primes; n < 1 is a domain error.

    Trial division by primes up to TRIAL_DIVISION_BOUND, then Miller-Rabin
    and Pollard-Brent rho for what is left.  Raises BudgetExceededError when
    rho needs more than DEFAULT_FACTOR_BUDGET steps, or when a cofactor of at
    least PSI_13 passes every Miller-Rabin base, so its primality is unproven.
    """
    n = positive_int(n, "factorize: n")
    return Factorization(n, _prime_factors(n))


def divisors(n: int) -> list[int]:
    """All divisors of n in increasing order."""
    divs = [1]
    for p, e in factorize(n).factors:
        divs = [d * p**j for d in divs for j in range(e + 1)]
    return sorted(divs)


class MultiplicativeFunction(NamedTuple):
    """Arithmetic function f with f(1) = 1, defined by its prime-power values.

    `prime_power_rule(p, e)` gives f(p**e) for e >= 1; the value at any n is
    the product over the factorization of n.
    """

    name: str
    prime_power_rule: Callable[[int, int], ArithValue]

    def __call__(self, n: int) -> ArithValue:
        return eval_mf(self, n)


def eval_mf(f: MultiplicativeFunction, n: int) -> ArithValue:
    fac = factorize(n)
    val: ArithValue = 1
    for p, e in fac.factors:
        val *= f.prime_power_rule(p, e)
    # an integral Fraction comes back as an int; ints pass through unchanged
    return int(val) if getattr(val, "denominator", None) == 1 else val


def dirichlet_convolve(
    f: MultiplicativeFunction, g: MultiplicativeFunction, name: str | None = None
) -> MultiplicativeFunction:
    """Dirichlet convolution f * g of two multiplicative functions."""

    def rule(p: int, e: int) -> ArithValue:
        total: ArithValue = 0
        for j in range(e + 1):
            fv = 1 if j == 0 else f.prime_power_rule(p, j)
            gv = 1 if j == e else g.prime_power_rule(p, e - j)
            total += fv * gv
        return total

    return MultiplicativeFunction(name or f"({f.name}*{g.name})", rule)


# -- registry of classical functions --------------------------------------

mobius_mf = MultiplicativeFunction("mu", lambda p, e: -1 if e == 1 else 0)
one_mf = MultiplicativeFunction("one", lambda p, e: 1)
epsilon_mf = MultiplicativeFunction("epsilon", lambda p, e: 0)
tau_mf = MultiplicativeFunction("tau", lambda p, e: e + 1)
phi_mf = MultiplicativeFunction("phi", lambda p, e: p ** (e - 1) * (p - 1))


def id_k_mf(k: int) -> MultiplicativeFunction:
    """Power function n -> n**k."""
    return MultiplicativeFunction(f"id_{k}", lambda p, e: power(p, e * k))


id_mf = id_k_mf(1)


def jordan_mf(k: int) -> MultiplicativeFunction:
    """Jordan totient J_k: counts k-tuples below n with joint gcd 1 against n."""
    k = positive_int(k, "jordan_mf: k")
    return MultiplicativeFunction(f"J_{k}", lambda p, e: power(p, (e - 1) * k) * (power(p, k) - 1))


def piltz_mf(j: int) -> MultiplicativeFunction:
    """Piltz divisor function tau_j: ordered factorizations into j factors."""
    j = positive_int(j, "piltz_mf: j")
    return MultiplicativeFunction(f"tau_{j}", lambda p, e: comb(e + j - 1, j - 1))


@lru_cache(maxsize=1 << 16)
def euler_phi(n: int) -> int:
    return eval_mf(phi_mf, n)


@lru_cache(maxsize=1 << 16)
def mobius(n: int) -> int:
    return eval_mf(mobius_mf, n)


def jordan_totient(k: int, n: int) -> int:
    k, n = tuple_args(k, n)
    return eval_mf(jordan_mf(k), n)


def tau(n: int) -> int:
    return eval_mf(tau_mf, n)


# -- arbitrary (possibly non-multiplicative) functions --------------------


def _table_entry(table: Mapping[int, ArithValue], what: str, n: int) -> ArithValue:
    try:
        return table[n]
    except KeyError:
        raise ValueError(f"{what} has no entry for {n}") from None


def table_lookup(table: Mapping, what: str = "value table") -> Callable[[int], int]:
    """Read an arithmetic function off a divisor-indexed table.

    The one table rule: a Mapping, keys integers (no bool) or strings `int` reads, values exact
    integers (no bool; an integral float reads as its int), each refusal naming `what` and the key.
    """
    if not isinstance(table, Mapping):
        raise ValueError(f"{what} must map divisors to values, got {type(table).__name__}")
    checked = {}
    for key, value in table.items():
        try:
            if isinstance(key, bool):
                raise TypeError  # int(True) reads 1
            n = int(key) if isinstance(key, str) else operator.index(key)  # int(2.5) truncates
        except (TypeError, ValueError):
            raise ValueError(f"{what} has a key {key!r} that is not an integer") from None
        if isinstance(value, bool):
            raise ValueError(f"{what}[{key}]: boolean is not a valid value")
        if isinstance(value, float) and value.is_integer():
            value = int(value)
        if not isinstance(value, int):
            raise ValueError(f"{what}[{key}]: values must be exact integers, got {value!r}")
        checked[n] = value
    return partial(_table_entry, checked, what)


def mobius_transform(f: ArithFn, d: int) -> ArithValue:
    """(mu * f)(d) = sum over j | d of mu(d/j) f(j), f a callable or a table (`table_lookup`).

    mu(d/j) is 0 unless s = d/j is squarefree, so the sum runs over the 2**omega(d) squarefree
    s | rad(d), from d's one factorization, each j = d/s taken in ascending order.
    """
    fn = table_lookup(f) if isinstance(f, Mapping) else f
    terms = [(d, 1)]  # (d/s, mu(s))
    for p in factorize(d).primes():
        terms += [(j // p, -m) for j, m in terms]
    total: ArithValue = 0
    for j, m in sorted(terms):
        total += m * fn(j)
    return total
