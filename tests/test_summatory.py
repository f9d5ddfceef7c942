"""Partial sums, exact power sums, and the average-order constant enclosure."""
import math
import os
import tracemalloc
from bisect import bisect_right
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phik import (
    BudgetExceededError,
    Enclosure,
    average_order_constant,
    error_table_csv,
    error_term_rows,
    faulhaber_sum,
    g_k,
    phi_k,
    primes_up_to,
    residues,
    sum_phi_k_convolution,
    sum_phi_k_direct,
    summatory,
    totients,
)
from test_core import _PRIMES_TO_10_6


def test_sum_frozen_values():
    assert sum_phi_k_direct(2, 10).value == 63
    assert sum_phi_k_convolution(2, 10).value == 63
    assert sum_phi_k_direct(2, 1).value == 1
    assert sum_phi_k_convolution(2, 1).value == 1
    assert sum_phi_k_direct(3, 2).value == 2
    assert sum_phi_k_direct(2, 30).value == 2595
    assert sum_phi_k_convolution(2, 30).value == 2595
    assert sum_phi_k_direct(3, 20).value == 14062
    assert sum_phi_k_direct(4, 10).value == 2135


def test_a_partial_sum_is_an_int():
    total = sum_phi_k_direct(2, 10)
    assert total == 63 and isinstance(total, int) and total.value == 63
    assert type(total.value) is int and str(total) == repr(total) == "63"
    assert {total, sum_phi_k_convolution(2, 10)} == {63}
    with pytest.raises(ValueError, match="worker count must be a positive integer, got 0"):
        sum_phi_k_convolution(2, 10, workers=0)


def test_sum_matches_running_total_of_closed_form():
    for k in (1, 2, 3):
        running = 0
        for x in range(1, 121):
            running += phi_k(k, x)
            assert sum_phi_k_direct(k, x).value == running, (k, x)


def test_sum_methods_agree():
    for k in (1, 2, 3, 4):
        for x in (1, 7, 100, 1000):
            direct = sum_phi_k_direct(k, x)
            conv = sum_phi_k_convolution(k, x)
            assert direct.value == conv.value, (k, x)


def test_sum_parallel_matches_serial(monkeypatch):
    monkeypatch.setattr(summatory, "POOL_FLOOR", 4)  # a real split at a small x
    assert sum_phi_k_direct(2, 4000, workers=3).value == sum_phi_k_direct(2, 4000).value


def test_sum_domain_and_budget():
    with pytest.raises(ValueError):
        sum_phi_k_direct(2, 0)
    with pytest.raises(ValueError):
        sum_phi_k_direct(0, 10)
    with pytest.raises(BudgetExceededError):
        sum_phi_k_direct(2, 10**7, sieve_limit=10**6)
    with pytest.raises(BudgetExceededError):
        sum_phi_k_convolution(2, 10**7, sieve_limit=10**6)


def test_faulhaber_examples():
    assert faulhaber_sum(2, 3) == 14
    assert faulhaber_sum(1, 100) == 5050
    assert faulhaber_sum(3, 0) == 0
    assert faulhaber_sum(0, 9) == 9


def test_faulhaber_matches_direct_accumulation():
    for k in range(0, 7):
        total = 0
        for m in range(1, 2001):
            total += m**k
            assert faulhaber_sum(k, m) == total, (k, m)
    # spot checks at the top of the required range
    for k in range(0, 7):
        assert faulhaber_sum(k, 10**4) == sum(i**k for i in range(1, 10**4 + 1))


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=12), st.integers(min_value=0, max_value=3000))
def test_faulhaber_property(k, m):
    assert faulhaber_sum(k, m) == sum(i**k for i in range(1, m + 1))


def test_primes_up_to():
    assert primes_up_to(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert len(primes_up_to(10**4)) == 1229
    assert primes_up_to(0) == primes_up_to(1) == [] and primes_up_to(np.int64(2)) == [2]
    assert primes_up_to(10**6) == _PRIMES_TO_10_6


def test_the_byte_sieve_lists_the_primes_up_to_every_small_limit():
    # the sieve holds the odd numbers only: 2, squares of primes and both parities of limit
    limits = [*range(200), *(p * p + d for p in (991, 997) for d in (-1, 0, 1, 2))]
    for limit in limits:
        expected = _PRIMES_TO_10_6[: bisect_right(_PRIMES_TO_10_6, limit)]
        assert list(summatory._primes(limit)) == primes_up_to(limit) == expected, limit


@pytest.mark.parametrize("limit", [-5, 2.5, True, "10", None])
def test_primes_up_to_refuses_a_limit_that_is_not_an_integer_at_least_0(limit):
    with pytest.raises(ValueError, match="prime limit must be an integer >= 0"):
        primes_up_to(limit)


def test_constant_rejects_k1_and_tiny_bounds():
    with pytest.raises(ValueError):
        average_order_constant(1, 10**4)
    with pytest.raises(ValueError):
        average_order_constant(2, 100)


def test_constant_enclosure_contains_reference_value():
    # truncation at 10^7 with the crude tail bound pinned the constant to
    # [0.2867473474, 0.2867474335]; any sound enclosure must contain both ends
    enclosure = average_order_constant(2, 10**5)
    assert enclosure.lo <= 0.2867473474 and 0.2867474335 <= enclosure.hi
    assert enclosure.lo <= 0.286747 <= enclosure.hi


def test_constant_enclosures_nested_and_shrinking():
    previous: Enclosure | None = None
    for bound in (10**3, 10**4, 10**5):
        enclosure = average_order_constant(2, bound)
        assert 0 < enclosure.lo <= enclosure.hi
        if previous is not None:
            assert previous.lo <= enclosure.lo and enclosure.hi <= previous.hi
            assert enclosure.width < previous.width
        previous = enclosure


def test_constant_k3_contains_golden():
    # golden value 0.3071007 from an independent truncation at P = 10^7
    enclosure = average_order_constant(3, 10**5)
    assert enclosure.lo <= 0.3071007 <= enclosure.hi
    assert enclosure.width <= 1e-4


def test_error_rows_shape_and_frozen_delta():
    rows = error_term_rows(2, [10, 100], prime_bound=10**4)
    assert [row.x for row in rows] == [10, 100]
    assert rows[0].total == 63
    # delta(10) = 63 - C_2 * 1000/3, about -32.6
    assert math.isclose(rows[0].delta, 63 - 0.28674743 * 1000 / 3, abs_tol=0.05)
    assert rows[0].main_lo <= 0.28674743 * 1000 / 3 <= rows[0].main_hi
    assert rows[1].ratio > 0


@pytest.mark.parametrize("k", [2, 3, 5])
def test_the_normalized_ratio_is_delta_over_x_to_the_k_times_log_x_to_the_k_plus_1(k):
    # |delta| / (x**k (log x)**(k+1)), the ratio `error_term_rows` documents
    for row in error_term_rows(k, [10, 1000, 10**5], prime_bound=10**4):
        assert row.ratio == abs(row.delta) / (row.x**k * math.log(row.x) ** (k + 1))


def test_error_rows_domain():
    with pytest.raises(ValueError):
        error_term_rows(1, [100])
    with pytest.raises(ValueError):
        error_term_rows(2, [])
    with pytest.raises(ValueError):
        error_term_rows(2, [1, 100])
    for point in (100.0, True):  # the float raised an AttributeError
        with pytest.raises(ValueError, match=f"grid point must be an integer >= 2, got {point}"):
            error_term_rows(2, [point, 1000])


def test_error_table_csv_columns():
    rows = error_term_rows(2, [10], prime_bound=10**4)
    text = error_table_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0] == "x,sum,main_term_lo,main_term_hi,delta,normalized_ratio"
    assert lines[1].startswith("10,63,")


def test_the_results_print_themselves():
    # the line `phik constant` prints, and the CSV and JSON records of `phik error-table`
    enclosure = average_order_constant(2, 1000)
    assert str(enclosure) == (f"C_2 in [{enclosure.lo!r}, {enclosure.hi!r}] "
                              f"width={enclosure.width!r} (primes up to 1000)")
    rows = error_term_rows(2, [10, 100], prime_bound=1000)
    assert str(rows) == error_table_csv(list(rows))
    assert rows.as_dict() == [row.as_dict() for row in rows] and rows == list(rows)


# -- the blocked routes ---------------------------------------------------------

# numbers per block of a walk on int64 rows, and on the exact row (`residues.Rows.block`)
WORD_BLOCK = residues.WORD_BLOCK
EXACT_BLOCK = residues.EXACT_BLOCK


@lru_cache(maxsize=None)
def _values(k):
    """[phi_k(n) for n = 0 .. 3 * WORD_BLOCK], 0 at n = 0, in exact ints.

    phi_k(n) = (n / rad n)**k times phi_k(p) over the primes p | n, the closed form of
    `phi_k_nm`, is sieved over the primes; `test_running_sums_follow_the_closed_form`
    ties it to phi_k itself.
    """
    top = 3 * WORD_BLOCK
    rad = np.ones(top + 1, dtype=np.int64)
    at_primes = np.ones(top + 1, dtype=object)
    for p in primes_up_to(top):
        rad[p::p] *= p
        at_primes[p::p] *= phi_k(k, p)
    return ((np.arange(top + 1) // rad).astype(object) ** k * at_primes).tolist()


@lru_cache(maxsize=None)
def _running_sums(k):
    """[sum of phi_k(n) for n <= x, x = 0 .. 3 * WORD_BLOCK], in exact ints."""
    return list(accumulate(_values(k)))


@lru_cache(maxsize=None)
def _odd_running_sums(k):
    """[sum of phi_k(m) for odd m <= z, z = 0 .. 3 * WORD_BLOCK], in exact ints."""
    return list(accumulate(v if n % 2 else 0 for n, v in enumerate(_values(k))))


@pytest.mark.parametrize("k", [1, 2, 5, 14, 20])
def test_running_sums_follow_the_closed_form(k):
    sums, top = _running_sums(k), 3 * WORD_BLOCK
    near_blocks = [b + d for b in (EXACT_BLOCK, WORD_BLOCK, 2 * WORD_BLOCK) for d in (-1, 0, 1, 2)]
    for n in [*range(1, 200), *range(200, top + 1, 97), *near_blocks, top]:
        assert sums[n] - sums[n - 1] == phi_k(k, n), (k, n)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=1, max_value=8), st.integers(min_value=1, max_value=3 * WORD_BLOCK))
def test_routes_match_running_sum(k, x):
    expected = _running_sums(k)[x]
    assert sum_phi_k_direct(k, x).value == expected
    assert sum_phi_k_convolution(k, x).value == expected


@pytest.mark.parametrize("x", [EXACT_BLOCK - 1, EXACT_BLOCK, EXACT_BLOCK + 1, 2 * EXACT_BLOCK - 1,
                               2 * EXACT_BLOCK, 2 * EXACT_BLOCK + 1, 4 * EXACT_BLOCK + 1])
@pytest.mark.parametrize("k", [2, 3])
def test_routes_at_block_boundaries(forced_rows, k, x):
    # on the exact row the direct route walks EXACT_BLOCK odd numbers, 2 * EXACT_BLOCK numbers,
    # at a time
    forced_rows(0)
    assert residues.Rows(k, x).block == EXACT_BLOCK
    expected = _running_sums(k)[x]
    assert sum_phi_k_direct(k, x).value == expected
    assert sum_phi_k_convolution(k, x).value == expected


@pytest.mark.parametrize("x", [WORD_BLOCK - 1, WORD_BLOCK, WORD_BLOCK + 1, 2 * WORD_BLOCK - 1,
                               2 * WORD_BLOCK, 2 * WORD_BLOCK + 1, 3 * WORD_BLOCK])
@pytest.mark.parametrize("k", [2, 3])
def test_routes_at_word_block_boundaries(k, x):
    # on int64 rows the direct route walks WORD_BLOCK odd numbers, 2 * WORD_BLOCK numbers, at a time
    assert residues.Rows(k, x).block == WORD_BLOCK
    expected = _running_sums(k)[x]
    assert sum_phi_k_direct(k, x).value == expected
    assert sum_phi_k_convolution(k, x).value == expected


def test_routes_exact_above_64_bits():
    x = WORD_BLOCK + 7
    expected = _running_sums(6)[x]
    assert expected > 2**64
    assert sum_phi_k_direct(6, x).value == expected
    assert sum_phi_k_convolution(6, x).value == expected


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_direct_range_sums_add_up_over_partitions(data):
    # the odd sums at each cut, range by range, add up to one walk and to the running sums
    k = data.draw(st.integers(min_value=1, max_value=6))
    x = data.draw(st.integers(min_value=2, max_value=3 * WORD_BLOCK))
    breaks = sorted(data.draw(st.sets(st.integers(min_value=1, max_value=x - 1), max_size=6)))
    cuts = sorted(data.draw(st.sets(st.integers(min_value=1, max_value=x), min_size=1, max_size=6)))
    bounds = [0, *breaks, x]
    pieces = [summatory._direct_range_sum((k, lo + 1, hi, cuts, x))
              for lo, hi in zip(bounds, bounds[1:])]
    odd = _odd_running_sums(k)
    whole = summatory._direct_range_sum((k, 1, x, cuts, x))
    assert [sum(cut) for cut in zip(*pieces)] == whole == [odd[z] for z in cuts]


@pytest.mark.parametrize("k", [1, 2, 3, 4, 7])
def test_the_2_adic_split_rebuilds_every_running_sum(k):
    # sum_{n <= x} phi_k(n) = sum_e phi_k(2**e) S_odd(x >> e), from the odd sums alone
    odd = _odd_running_sums(k)
    xs = [*range(1, 300), *(2**j + d for j in range(9, 18) for d in (-1, 0, 1))]
    totals = summatory._two_adic(k, xs, lambda cuts: [odd[z] for z in cuts])
    assert totals == [_running_sums(k)[x] for x in xs]


@pytest.mark.parametrize("x", [2**j + d for j in (1, 2, 3, 10, 15, 16, 17) for d in (-1, 0, 1)])
@pytest.mark.parametrize("k", [2, 3, 5])
def test_routes_at_powers_of_two_in_rows(k, x):
    # k = 2 takes the word row alone, k = 3 and 5 prime rows from x = 2**15 and 2**10 on
    assert residues.Rows(k, x).moduli
    expected = _running_sums(k)[x]
    assert sum_phi_k_direct(k, x).value == expected
    assert sum_phi_k_convolution(k, x).value == expected


@pytest.mark.parametrize("x", [*(2**j + d for j in (1, 2, 3, 10, 15, 16) for d in (-1, 0, 1)),
                               *(r * r + d for r in (3, 100) for d in (-1, 0, r - 1, r)),
                               *(p * p + d for p in (97, 101) for d in (-1, 0, 1))])
@pytest.mark.parametrize("k", [2, 3])
def test_routes_at_powers_of_two_in_the_exact_row(forced_rows, k, x):
    # one exact row: its convolution sums the table of g_k at 2 and the odd primes between
    # the ends of consecutive quotients; the quotient set changes shape at r**2 and r**2 + r,
    # the sieving steps at prime squares
    forced_rows(0)
    assert not residues.Rows(k, x).moduli
    expected = _running_sums(k)[x]
    assert sum_phi_k_direct(k, x).value == expected
    assert sum_phi_k_convolution(k, x).value == expected


@pytest.mark.parametrize("k", [2, 3])
def test_error_rows_at_powers_of_two_and_their_neighbours(k):
    # one walk to the top, its cuts at each x >> e of the grid
    grid = [2, 3, 4, 5, 7, 8, 9, 1023, 1024, 1025, 2**16 - 1, 2**16, 2**16 + 1, 2**17]
    rows = error_term_rows(k, grid, prime_bound=10**4)
    assert [row.total for row in rows] == [_running_sums(k)[x] for x in grid]


def test_error_rows_match_direct_sums_across_blocks():
    grid = [WORD_BLOCK - 1, WORD_BLOCK, WORD_BLOCK + 1, 2 * WORD_BLOCK + 3]
    rows = error_term_rows(2, grid, prime_bound=10**4)
    assert [row.total for row in rows] == [sum_phi_k_direct(2, x).value for x in grid]


@pytest.mark.parametrize("route", [sum_phi_k_direct])
def test_sum_memory_is_bounded_by_the_block(route):
    # the two x-long tables, the SPF sieve and the prime values, are built untraced (at these
    # x the prime table alone doubles the traced peak); what the walk builds is traced
    peaks = []
    for x in (4 * WORD_BLOCK, 32 * WORD_BLOCK):  # int64 rows at k = 5; two blocks of odd n or more
        summatory._spf_sieve(x)
        summatory._prime_values.cache_clear()
        summatory._prime_values(5, x)
        tracemalloc.start()
        try:
            route(5, x)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # x grows 8-fold, and the larger x takes 4 residue rows against 3, so a block 4/3 the size
    assert peaks[1] < 4 / 3 * peaks[0], peaks


def test_a_walk_holds_one_block_at_a_time():
    # traced, a walk over 8 blocks of odd n peaks where a walk over one block does: each block
    # is dropped before the next is built (a walk that held the one before peaked 1.6 times higher)
    k, x = 5, 1 << 20
    summatory._spf_sieve(x)
    summatory._prime_values(k, x)
    peaks = []
    for hi in (2 * WORD_BLOCK - 1, x):
        tracemalloc.start()
        try:
            summatory._direct_range_sum((k, 1, hi, [hi], x))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 1.05 * peaks[0], peaks


def test_convolution_memory_grows_as_the_square_root_of_x():
    # on int64 rows the route builds no sieve, so everything it builds is traced: a few arrays
    # of (k + 1) powers x rows x |Q| int64s, |Q| about 2 sqrt(x), at most 5 of them at a time
    # here (a sieve alone would take 4x bytes)
    k = 5
    sum_phi_k_convolution(k, 1000)  # the power-sum polynomials, cached for every x
    for x in (2 * WORD_BLOCK, 32 * WORD_BLOCK):  # int64 rows
        summatory._spf_sieve.cache_clear()
        summatory._prime_values.cache_clear()
        tracemalloc.start()
        try:
            sum_phi_k_convolution(k, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        arrays = (k + 1) * len(residues.Rows(k, x).moduli) * 2 * math.isqrt(x) * 8
        assert peak < 12 * arrays, (x, peak, arrays)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_the_quotient_route_matches_running_sum_near_squares(data):
    # the quotient set and the sieving steps change shape at squares, prime squares and x <= k + 1,
    # where every power sum is a plain sum
    k = data.draw(st.integers(min_value=1, max_value=8))
    root = st.integers(min_value=1, max_value=math.isqrt(3 * WORD_BLOCK))
    prime = st.sampled_from(primes_up_to(math.isqrt(3 * WORD_BLOCK)))
    x = data.draw(st.one_of(
        st.integers(min_value=1, max_value=k + 2),
        st.builds(lambda r, d: r * r + d, root, st.integers(min_value=-1, max_value=1)),
        st.builds(lambda p, d: p * p + d, prime, st.integers(min_value=-1, max_value=1)),
    ).filter(lambda x: 1 <= x <= 3 * WORD_BLOCK))
    assert residues.Rows(k, x).moduli
    assert sum_phi_k_convolution(k, x).value == _running_sums(k)[x]


def test_the_quotient_route_builds_no_sieve_and_only_the_primes_up_to_the_root(monkeypatch):
    limits = []
    primes = summatory._primes
    monkeypatch.setattr(summatory, "_primes", lambda limit: limits.append(limit) or primes(limit))
    summatory._spf_sieve.cache_clear()
    summatory._prime_values.cache_clear()
    for k, x in ((2, 10**5), (5, 40000), (13, 40000)):  # 2, 3 and 7 rows
        expected = _running_sums(k)[x]
        limits.clear()
        assert sum_phi_k_convolution(k, x).value == expected
        assert limits == [math.isqrt(x)]
    assert summatory._spf_sieve.cache_info().currsize == 0
    assert summatory._prime_values.cache_info().currsize == 0
    sum_phi_k_convolution(17, 40000)  # the exact row evaluates g_k at the sieve's primes up to x
    assert summatory._spf_sieve.cache_info().currsize == 1


def test_a_refused_sum_builds_no_sieve():
    # the exact row is priced before the sieve is built: at k = 1000, x = 2**25 the sieve alone
    # would take 64 MiB
    summatory._spf_sieve.cache_clear()
    summatory._prime_values.cache_clear()
    with pytest.raises(BudgetExceededError, match="the exact sums to x=33554432 at k=1000"):
        sum_phi_k_direct(1000, 2**25)
    with pytest.raises(BudgetExceededError, match="the exact sums to x=33554432 at k=1000"):
        error_term_rows(1000, [2, 2**25], prime_bound=1000)
    assert summatory._spf_sieve.cache_info().currsize == 0


def test_both_routes_on_the_exact_row_leave_one_table_of_prime_values(forced_rows):
    # the convolution evaluates g_k once, at 2 and the sieve's odd primes, and caches none of it:
    # the only prime values left are the direct route's phi_k(p)
    forced_rows(0)
    k, x = 3, 5000
    assert sum_phi_k_convolution(k, x).value == _running_sums(k)[x]
    assert summatory._prime_values.cache_info().currsize == 0
    assert sum_phi_k_direct(k, x).value == _running_sums(k)[x]
    assert summatory._prime_values.cache_info().currsize == 1


@pytest.mark.parametrize("rows", [3, 0])
def test_the_convolution_route_walks_no_block(forced_rows, monkeypatch, rows):
    # on int64 rows and on the exact row alike, the route runs over the quotient set
    def walk(*args):
        raise AssertionError("the convolution route walked a block")

    monkeypatch.setattr(residues, "blocks", walk)
    forced_rows(rows)
    for k, x in ((2, 10**4), (5, 40000), (3, 2 * EXACT_BLOCK + 1)):
        assert sum_phi_k_convolution(k, x).value == _running_sums(k)[x]


@lru_cache(maxsize=1)
def _smallest_factors(limit):
    """[0, 0, then the smallest prime factor of each n = 2 .. limit], by trial division."""
    return [0, 0, *(next((p for p in range(2, math.isqrt(n) + 1) if n % p == 0), n)
                    for n in range(2, limit + 1))]


@pytest.mark.parametrize("limit", [1, 2, 3, 4, 9, 10, 25, 26, 97, 1000, 9973, 10**4])
def test_spf_sieve_matches_trial_division(limit):
    # one entry per odd n <= limit, at n >> 1; the prime table holds 1, then the odd primes
    primes, spf = summatory._spf_sieve(limit)
    smallest = _smallest_factors(10**4)[: limit + 1]
    assert spf.size == (limit + 1) // 2 and spf.dtype == np.int32
    assert primes.tolist() == [1, *(n for n in range(3, limit + 1) if smallest[n] == n)]
    assert spf[0] == 0
    assert primes[spf[1:]].tolist() == smallest[3::2]


@pytest.mark.parametrize("workers", [1, 2])
def test_direct_sum_builds_the_sieve_and_prime_table_before_the_workers(monkeypatch, workers):
    # forked workers inherit what the parent built: each lookup in the pool must be a hit
    k, x = 3, 5000
    summatory._spf_sieve.cache_clear()
    summatory._prime_values.cache_clear()
    monkeypatch.setattr(summatory, "POOL_FLOOR", 4)  # a real split at a small x
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)

    def inline_pool(fn, tasks):
        assert len(tasks) == workers
        # the odd numbers, split in ranges, each with every cut x >> e (phi_3(2**e) is never 0)
        ranges = [(1, 4999)] if workers == 1 else [(1, 2499), (2501, 4999)]
        assert [task[1:3] for task in tasks] == ranges
        assert all(task[3] == sorted(x >> e for e in range(x.bit_length())) for task in tasks)
        for cached, args in ((summatory._spf_sieve, (x,)),
                             (summatory._prime_values, (k, x))):
            hits = cached.cache_info().hits
            cached(*args)
            assert cached.cache_info().hits == hits + 1, cached
        return [fn(task) for task in tasks]

    monkeypatch.setattr(summatory, "parallel_map", inline_pool)
    assert sum_phi_k_direct(k, x, workers=workers).value == _running_sums(k)[x]


def test_prime_bound_over_the_sieve_limit_is_refused():
    with pytest.raises(BudgetExceededError):
        average_order_constant(2, 10**11)
    with pytest.raises(BudgetExceededError):
        average_order_constant(2, 10**4, sieve_limit=5000)
    with pytest.raises(BudgetExceededError):
        error_term_rows(2, [100], prime_bound=10**4, sieve_limit=5000)
    assert average_order_constant(2, 10**4, sieve_limit=10**4) == average_order_constant(2, 10**4)


@lru_cache(maxsize=None)
def _exact_truncated_product(k, prime_bound):
    num = den = 1
    for p in primes_up_to(prime_bound):
        num *= p ** (k + 1) + g_k(k, p)
        den *= p ** (k + 1)
    return Fraction(num, den)


def _assert_truncated_product_enclosed(k, prime_bound):
    lo, hi = summatory._truncated_product(k, prime_bound)
    assert Fraction(lo) <= _exact_truncated_product(k, prime_bound) <= Fraction(hi), (k, prime_bound)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=12), st.integers(min_value=1000, max_value=5000))
def test_float_product_encloses_the_exact_truncated_product(k, prime_bound):
    _assert_truncated_product_enclosed(k, prime_bound)


def test_float_product_encloses_the_exact_product_where_powers_underflow():
    # (1/p)**130 is subnormal for p above about 230 and rounds to 0 above about 310
    _assert_truncated_product_enclosed(130, 1000)


@pytest.mark.parametrize("k", [2, 3, 4, 7, 12, 130, 1100])
def test_each_float_factor_within_its_proven_error(k):
    # the per-factor bound of summatory._factors, against exact rationals; at
    # k = 1100, (1/p)**k rounds to 0 for every prime, and w**k does at p = 2
    primes = list(summatory._primes(1000 if k > 100 else 3000))
    factors = summatory._factors(k, [1.0 / p for p in primes])
    u = Fraction(1, 2**53)
    assert len(factors) == len(primes) and all(type(factor) is float for factor in factors)
    for p, factor in zip(primes, factors):
        t, w = Fraction(1, p), Fraction(p - 1, p)
        exact = 1 - t * (1 - w * (w**k - (-t) ** k))
        if k <= 12:
            assert exact == 1 + Fraction(g_k(k, p), p ** (k + 1))
        assert abs(Fraction(factor) - exact) <= (3 * k + 5) * u * t + u / 2, (k, p)


def _numpy_power(x, k):
    if k == 1:
        return x
    half = _numpy_power(x * x, k // 2)
    return half * x if k % 2 else half


def _numpy_factors(k, t):
    w = 1.0 - t
    s = _numpy_power(w, k) - (-1) ** (k % 2) * _numpy_power(t, k)
    return 1.0 - t * (1.0 - w * s)


def _numpy_truncated_product(k, prime_bound):
    """`summatory._truncated_product` as one float64 numpy pass computed it, the reference for
    its Python floats: 1.0 / primes, the factor formula elementwise, `.prod()` per chunk of
    2**14 primes, then `math.prod` of the chunk products, widened by the same slack."""
    everything = np.array(_PRIMES_TO_10_6)
    primes = everything[: np.searchsorted(everything, prime_bound, side="right")]
    slack = Fraction((6 * k + 11) * 7 * prime_bound.bit_length(), 10 * 2**53)
    chunks = (primes[i : i + (1 << 14)] for i in range(0, primes.size, 1 << 14))
    product = math.prod(float(_numpy_factors(k, 1.0 / chunk).prod()) for chunk in chunks)
    slack += Fraction(primes.size, 2**54) + Fraction(primes.size - 1, 2**53 - (primes.size - 1))
    lo = max(0.0, math.nextafter(
        product * summatory._float_below(*(1 - slack).as_integer_ratio()), -math.inf))
    hi = (math.nextafter(product * summatory._float_above(*(1 / (1 - slack)).as_integer_ratio()),
                         math.inf) if slack < 1 else 1.0)
    return lo, min(hi, 1.0)


BIT_IDENTITY_CASES = [(k, prime_bound) for k in (*range(2, 13), 17, 64, 130, 1100, 12345)
                      for prime_bound in (1000, 4999, 16411, 100003, 262147, 998424)
                      if k <= 100 or prime_bound <= 100003]


def test_the_float_product_is_the_numpy_product_bit_for_bit():
    # every elementwise + - * / rounds as numpy's did, and a float64 multiply-reduce is a left fold,
    # as math.prod is; the powers underflow at k = 130 and above
    assert summatory.PRODUCT_CHUNK == 1 << 14 and len(BIT_IDENTITY_CASES) == 90
    for k, prime_bound in BIT_IDENTITY_CASES:
        ours = summatory._truncated_product(k, prime_bound)
        assert ours == _numpy_truncated_product(k, prime_bound), (k, prime_bound)
        assert all(type(end) is float for end in ours)


def test_enclosure_stays_sound_where_the_rounding_bound_exceeds_one():
    # at k near 10**14 the proven slack passes 1; every factor is at most 1
    enclosure = average_order_constant(10**15, 1000)
    assert (enclosure.lo, enclosure.hi) == (0.0, 1.0)


def test_a_slack_of_one_sieves_no_prime(monkeypatch):
    # the slack's first term, (6k+11) * 0.7 bits(P) * 2**-53, reaches 1 before any prime is known
    def no_sieve(limit):
        raise AssertionError("sieved")

    monkeypatch.setattr(summatory, "_primes", no_sieve)
    for k, prime_bound in ((10**20, 2**25), (10**15, 1000)):
        assert summatory._truncated_product(k, prime_bound) == (0.0, 1.0)
        assert average_order_constant(k, prime_bound) == Enclosure(k, prime_bound, 0.0, 1.0)


def test_the_upper_bound_is_never_above_one():
    # below a slack of 1, prod'/(1 - slack) passes 1 once 1 - slack falls below the product
    # (about 0.061 at P = 10**4); every factor, and so the product, is below 1
    prime_bound, bits = 10**4, (10**4).bit_length()
    k = (97 * 10 * 2**53 // (100 * 7 * bits) - 11) // 6  # the first term of the slack near 0.97
    lo, hi = summatory._truncated_product(k, prime_bound)
    assert 0 < lo < hi == 1.0  # prod'/(1 - slack) is about 2
    product = summatory._truncated_product(k, 1000)  # a slack of 0.69 there: the bound holds
    assert 0 < product[0] < product[1] < 1


# C_k to 35 digits: the exact product over p <= 2000 and the log-series tail
# over prime zeta values, at 50 digits (mpmath)
C_K_35 = {
    2: "0.28674742843447873410789271278983845",
    3: "0.30710070302025899046139076204249197",
    4: "0.24625973348912037140369997614624411",
    5: "0.23820220350229579034273654725365301",
    6: "0.21768344631826571338345444321109935",
}


@pytest.mark.parametrize("k", sorted(C_K_35))
def test_enclosure_contains_35_digit_constant(k):
    enclosure = average_order_constant(k, 10**5)
    radius = Fraction(1, 10**35)
    assert Fraction(enclosure.lo) <= Fraction(C_K_35[k]) - radius
    assert Fraction(C_K_35[k]) + radius <= Fraction(enclosure.hi)


@pytest.mark.parametrize("k", [2, 3, 4, 6])
@pytest.mark.parametrize("prime_bound", [10**4, 10**5, 10**6])
def test_rounding_share_of_the_width(k, prime_bound):
    enclosure = average_order_constant(k, prime_bound)
    n = len(primes_up_to(prime_bound))
    tail = enclosure.hi * (k + 1) / (prime_bound - 1)
    assert enclosure.width - tail <= 8 * n * 2.0**-53 * enclosure.hi


@pytest.mark.parametrize("k", [2, 3, 5])
def test_error_table_main_terms_are_certified_bounds(k):
    enclosure = average_order_constant(k, 10**4)
    for x in (2, 3, 10, 97, 1000, 12345, 10**6 + 3, 10**9 + 7):
        row = summatory.error_row(x, 0, enclosure)
        main = Fraction(x ** (k + 1), k + 1)
        assert Fraction(row.main_lo) <= Fraction(enclosure.lo) * main
        assert Fraction(enclosure.hi) * main <= Fraction(row.main_hi)
        assert row.main_lo <= row.main_hi


def _fraction_below(r):
    x = float(r)
    return x if x <= r else math.nextafter(x, -math.inf)


def _fraction_above(r):
    x = float(r)
    return x if x >= r else math.nextafter(x, math.inf)


def _halfway(x):
    # the midpoint between a float and the next one up, exact; at 0.0, half the least subnormal
    return (Fraction(x) + Fraction(math.nextafter(x, math.inf))) / 2


NUMERATORS = st.integers(-(2**1100), 2**1100)
FLOATS = st.floats(allow_nan=False, allow_infinity=False)
RATIOS = st.one_of(
    st.tuples(NUMERATORS, st.integers(1, 2**1100)),
    # subnormal results, and results that underflow to zero
    st.tuples(st.integers(-(2**60), 2**60), st.integers(1000, 1140).map(lambda e: 2**e)),
    # exact floats, over a denominator with a common factor
    st.tuples(FLOATS, st.integers(1, 2**70)).map(
        lambda fc: tuple(c * fc[1] for c in fc[0].as_integer_ratio())),
    # halfway between two floats, subnormal ones included
    st.tuples(FLOATS.filter(lambda x: x < 1.7e308), st.integers(1, 2**70)).map(
        lambda fc: tuple(c * fc[1] for c in _halfway(fc[0]).as_integer_ratio())),
)


@settings(max_examples=400, deadline=None)
@given(RATIOS)
def test_integer_rounding_is_the_fraction_rounding(ratio):
    # the tail num/den is <= 0 once k + 2 >= P; past the float range both raise OverflowError,
    # which error_row turns into its exit-2 message
    num, den = ratio
    for ours, reference in ((summatory._float_below, _fraction_below),
                            (summatory._float_above, _fraction_above)):
        try:
            expected = reference(Fraction(num, den)).hex()
        except OverflowError:
            with pytest.raises(OverflowError):
                ours(num, den)
            continue
        assert ours(num, den).hex() == expected, (ours, num, den)
    if abs(Fraction(num, den)) < 2**1023:
        assert summatory._float_below(num, den) <= Fraction(num, den)
        assert Fraction(num, den) <= summatory._float_above(num, den)


@pytest.mark.parametrize("k, x", [(2, 10), (2, 33554432), (3, 999), (5, 1048576), (40, 100000),
                                  (250, 10)])
def test_error_row_main_terms_are_the_fraction_main_terms(k, x):
    enclosure = average_order_constant(k, 10**4)
    row = summatory.error_row(x, 0, enclosure)
    main = Fraction(x ** (k + 1), k + 1)
    assert row.main_lo == _fraction_below(Fraction(enclosure.lo) * main)
    assert row.main_hi == _fraction_above(Fraction(enclosure.hi) * main)


def test_a_main_term_past_the_float_range_is_a_domain_error():
    # 20**301 / 301 is about 10**389: the OverflowError of the rounding becomes exit 2
    enclosure = average_order_constant(300, 1000)
    with pytest.raises(ValueError, match="the main term at k=300, x=20 does not fit in a float"):
        summatory.error_row(20, 0, enclosure)


def test_sieve_refusals_name_the_quantity_and_the_limit():
    with pytest.raises(BudgetExceededError, match="prime bound 10000 is above the sieve limit of 5000"):
        average_order_constant(2, 10**4, sieve_limit=5000)
    with pytest.raises(BudgetExceededError, match="cutoff x 2000 is above the sieve limit of 1000"):
        sum_phi_k_convolution(2, 2000, sieve_limit=1000)


# -- rows of residues -----------------------------------------------------------


# (k, x, number of rows; 0 for one exact row): a word row covers (k+1)*bits(x) < 64, and each
# prime row 31 bits more, up to 8 rows.  (k+1)*bits(x) = 30, 60, 64, 96, 128, 160, 192, 224,
# 234, 240, 256 and 288; at k = 30 it is 31*bits(x) and crosses 250 and 281
FEWEST_ROWS_CASES = [
    (1, 2**15 - 1, 1), (3, 2**15 - 1, 1), (3, 2**15, 2), (5, 40000, 3), (7, 40000, 4),
    (9, 40000, 5), (11, 40000, 6), (13, 40000, 7), (12, 3 * WORD_BLOCK, 7), (14, 3 * 2**14, 7),
    (15, 40000, 8),
    (17, 40000, 0), (30, 255, 7), (30, 256, 8), (30, 511, 8), (30, 512, 0),
]


@pytest.mark.parametrize("k, x, rows", FEWEST_ROWS_CASES)
def test_routes_match_running_sum_in_the_fewest_rows(k, x, rows):
    assert len(residues.Rows(k, x).moduli) == rows
    expected = _running_sums(k)[x] if k < 30 else sum(phi_k(k, n) for n in range(1, x + 1))
    assert sum_phi_k_direct(k, x).value == expected
    assert sum_phi_k_convolution(k, x).value == expected


@pytest.fixture
def forced_rows(monkeypatch):
    """Set the number of rows every walk carries (0: one exact row), whatever its bits."""
    summatory._prime_values.cache_clear()
    every = residues.moduli(280)
    yield lambda rows: monkeypatch.setattr(residues, "moduli", lambda bits: every[:rows])
    summatory._prime_values.cache_clear()


# (k, x, number of rows; 0 for one exact row), at least as many rows as the sum needs:
# more rows than that leave every sum the same
ROWS_CASES = [
    (1, 2**15 - 1, 1), (1, 2**15, 2), (3, 40000, 3), (5, 40000, 4), (7, 40000, 5),
    (9, 40000, 6), (11, 40000, 7), (13, 40000, 8), (14, 3 * 2**14, 8), (15, 40000, 0),
    (30, 63, 7), (30, 64, 8), (30, 127, 8), (30, 128, 0),
]


@pytest.mark.parametrize("k, x, rows", ROWS_CASES)
def test_routes_match_running_sum_in_every_number_of_rows(forced_rows, k, x, rows):
    assert len(residues.Rows(k, x).moduli) <= (rows or residues.MAX_MODULI)
    forced_rows(rows)
    assert len(residues.Rows(k, x).moduli) == rows
    expected = _running_sums(k)[x] if k < 30 else sum(phi_k(k, n) for n in range(1, x + 1))
    assert sum_phi_k_direct(k, x).value == expected
    assert sum_phi_k_convolution(k, x).value == expected


@pytest.mark.parametrize("k, x", [(1, 1000), (2, 5000), (5, 5000), (13, 3000), (40, 300)])
def test_prime_value_rows_hold_the_exact_values(k, x):
    summatory._prime_values.cache_clear()
    table = summatory._prime_values(k, x)
    moduli = residues.Rows(k, x).moduli
    primes = primes_up_to(x)[1:]  # the odd primes: the walks visit odd numbers only
    exact = [totients._phi_k_prime_power(k, p) for p in primes]
    if moduli:  # the word row holds each value mod 2**64, as a signed int64
        assert moduli[0] == 2**64
        assert table[0, 1:].tolist() == [(v + 2**63) % 2**64 - 2**63 for v in exact]
        assert table[1:, 1:].tolist() == [[v % q for v in exact] for q in moduli[1:]]
    else:
        assert table[0, 1:].tolist() == exact


@pytest.mark.parametrize("k", [3, 15, 17])
def test_error_rows_match_direct_sums_in_rows_and_in_exact_row(k):
    # k = 3 takes 2 rows and k = 15 all MAX_MODULI rows (below x = 2**17), walking WORD_BLOCK
    # odd numbers at a time, and k = 17 the exact row (from x = 2**15), walking EXACT_BLOCK;
    # the rows of the last grid point are the rows of every error row
    block, last, count = {3: (WORD_BLOCK, 2 * WORD_BLOCK + 3, 2),
                          15: (WORD_BLOCK, 2 * WORD_BLOCK - 1, residues.MAX_MODULI),
                          17: (EXACT_BLOCK, 4 * EXACT_BLOCK + 3, 0)}[k]
    grid = sorted({block - 1, block, block + 1, 2 * block - 1, last})
    assert len(residues.Rows(k, last).moduli) == count and residues.Rows(k, last).block == block
    rows = error_term_rows(k, grid, prime_bound=10**4)
    assert [row.total for row in rows] == [sum_phi_k_direct(k, x).value for x in grid]


def test_parallel_matches_serial_over_several_moduli(monkeypatch):
    monkeypatch.setattr(summatory, "POOL_FLOOR", 4)  # a real split at a small x
    assert len(residues.Rows(5, 40000).moduli) >= 3
    assert sum_phi_k_direct(5, 40000, workers=2).value == sum_phi_k_direct(5, 40000).value


@pytest.mark.parametrize("k", [5, 20, 64])
def test_faulhaber_both_sides_of_the_direct_cutoff(k):
    # up to m = k + 1 the powers are added; above, the interpolated polynomial is used
    for m in range(k - 1, k + 5):
        assert faulhaber_sum(k, m) == sum(i**k for i in range(1, m + 1)), (k, m)


@lru_cache(maxsize=None)
def _bernoulli(j: int) -> Fraction:
    # B_1 = -1/2 convention; sum_{i <= j} C(j+1, i) B_i = 0 pins each value
    if j == 0:
        return Fraction(1)
    if j % 2 and j > 1:
        return Fraction(0)
    acc = sum(math.comb(j + 1, i) * _bernoulli(i) for i in range(j) if i == 1 or i % 2 == 0)
    return -Fraction(acc, j + 1)


@pytest.mark.parametrize("k", [*range(61), 300])
def test_faulhaber_coefficients_match_the_bernoulli_formula(k):
    # S_k(m) = 1/(k+1) sum_{j <= k} (-1)**j C(k+1, j) B_j m**(k+1-j), over the least denominator
    coeffs = [Fraction((-1) ** j * math.comb(k + 1, j)) * _bernoulli(j) / (k + 1)
              for j in range(k + 1)]
    den = math.lcm(*(c.denominator for c in coeffs))
    assert summatory._faulhaber_coeffs(k) == (den, tuple(int(c * den) for c in coeffs))


def test_the_convolution_loop_runs_no_argument_gate(monkeypatch):
    calls = []
    monkeypatch.setattr(summatory, "positive_int", lambda value, *args, **kw: calls.append(value) or value)
    assert sum_phi_k_convolution(2, 10**4).value == _running_sums(2)[10**4]
    assert calls == [10**4]  # the cutoff, once; no power sum of the loop checks k and m again


def test_faulhaber_needs_no_bernoulli_numbers_up_to_k_plus_one():
    summatory._faulhaber_coeffs.cache_clear()
    assert faulhaber_sum(1000, 1001) == sum(i**1000 for i in range(1, 1002))
    assert summatory._faulhaber_coeffs.cache_info().currsize == 0


def test_bernoulli_build_is_priced_before_it_starts():
    summatory._faulhaber_coeffs.cache_clear()
    with pytest.raises(BudgetExceededError, match="the power-sum polynomial S_5000,") as exc:
        faulhaber_sum(5000, 5002)
    assert exc.value.limit is None  # no caller can raise this budget
    assert summatory._faulhaber_coeffs.cache_info().currsize == 0
    with pytest.raises(BudgetExceededError):
        sum_phi_k_convolution(5000, 10**4)
    assert faulhaber_sum(60, 100) == sum(i**60 for i in range(1, 101))  # priced far below 10**8


def test_sieve_refusal_names_its_limit():
    with pytest.raises(BudgetExceededError) as exc:
        sum_phi_k_direct(2, 2000, sieve_limit=1000)
    assert exc.value.limit == "sieve_limit"
